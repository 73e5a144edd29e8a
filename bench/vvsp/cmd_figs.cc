/**
 * @file
 * `vvsp figs [fig2|fig3|fig4|fig5|headers ...]`: the paper's VLSI
 * megacell figures and the Table 1/2 header rows — pure analytical-
 * model sweeps with no experiment cells (the "figs" spec). With no
 * argument every figure prints in order, replacing the retired
 * fig2_crossbar / fig3_regfile / fig4_sram / fig5_area /
 * table1_models binaries.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver.hh"
#include "arch/models.hh"
#include "support/table.hh"
#include "vlsi/area_estimator.hh"
#include "vlsi/clock_estimator.hh"
#include "vlsi/crossbar_model.hh"
#include "vlsi/regfile_model.hh"
#include "vlsi/sram_model.hh"

namespace vvsp
{
namespace cli
{

namespace
{

void
fig2Crossbar()
{
    CrossbarModel model;
    std::printf("Fig 2: Delay and Area for 16-bit Crossbar Switches\n\n");

    TextTable delay;
    std::vector<std::string> head{"ports"};
    for (double w : CrossbarModel::standardDriversUm())
        head.push_back(TextTable::num(w, 1) + "um delay(ns)");
    delay.header(head);
    for (int ports : CrossbarModel::standardPorts()) {
        std::vector<std::string> row{std::to_string(ports)};
        for (double w : CrossbarModel::standardDriversUm())
            row.push_back(TextTable::num(model.delayNs(ports, w), 2));
        delay.row(row);
    }
    std::printf("%s\n", delay.str().c_str());

    TextTable area;
    std::vector<std::string> head2{"ports"};
    for (double w : CrossbarModel::standardDriversUm())
        head2.push_back(TextTable::num(w, 1) + "um area(mm^2)");
    area.header(head2);
    for (int ports : CrossbarModel::standardPorts()) {
        std::vector<std::string> row{std::to_string(ports)};
        for (double w : CrossbarModel::standardDriversUm())
            row.push_back(TextTable::num(model.areaMm2(ports, w), 2));
        area.row(row);
    }
    std::printf("%s\n", area.str().c_str());
    std::printf("Paper shape: <1ns to 16 ports, ~1.5ns at 32, ~3ns at\n"
                "64 (largest driver); area insensitive to driver size,\n"
                "a few mm^2 at 32 ports.\n");
}

void
fig3Regfile()
{
    RegisterFileModel model;
    std::printf("Fig 3: Delay and Area for 16-bit multiported local "
                "register files\n\n");

    const int sizes[] = {16, 32, 64, 128, 256};

    TextTable delay;
    std::vector<std::string> head{"registers"};
    for (int p : RegisterFileModel::standardPorts())
        head.push_back(std::to_string(p) + "p delay(ns)");
    delay.header(head);
    for (int r : sizes) {
        std::vector<std::string> row{std::to_string(r)};
        for (int p : RegisterFileModel::standardPorts())
            row.push_back(TextTable::num(model.delayNs(r, p), 2));
        delay.row(row);
    }
    std::printf("%s\n", delay.str().c_str());

    TextTable area;
    std::vector<std::string> head2{"registers"};
    for (int p : RegisterFileModel::standardPorts())
        head2.push_back(std::to_string(p) + "p area(mm^2)");
    area.header(head2);
    for (int r : sizes) {
        std::vector<std::string> row{std::to_string(r)};
        for (int p : RegisterFileModel::standardPorts())
            row.push_back(TextTable::num(model.areaMm2(r, p), 2));
        area.row(row);
    }
    std::printf("%s\n", area.str().c_str());
    std::printf("Paper shape: delay only slightly port-dependent;\n"
                "area grows strongly with ports and registers\n"
                "(12-port 128-entry = 3.0 mm^2, Fig 5); 256 registers\n"
                "still meet the 650 MHz target.\n");
}

void
fig4Sram()
{
    SramModel model;
    std::printf("Fig 4: Delay and Area for multiported high-speed "
                "SRAM\n\n");

    TextTable delay;
    std::vector<std::string> head{"bytes"};
    for (int p : SramModel::standardPorts())
        head.push_back(std::to_string(p) + "p delay(ns)");
    delay.header(head);
    for (int bytes : SramModel::standardSizes()) {
        std::vector<std::string> row{std::to_string(bytes)};
        for (int p : SramModel::standardPorts())
            row.push_back(TextTable::num(model.delayNs(bytes, p), 2));
        delay.row(row);
    }
    std::printf("%s\n", delay.str().c_str());

    TextTable area;
    std::vector<std::string> head2{"bytes"};
    for (int p : SramModel::standardPorts())
        head2.push_back(std::to_string(p) + "p area(mm^2)");
    area.header(head2);
    for (int bytes : SramModel::standardSizes()) {
        std::vector<std::string> row{std::to_string(bytes)};
        for (int p : SramModel::standardPorts())
            row.push_back(TextTable::num(model.areaMm2(bytes, p), 3));
        area.row(row);
    }
    std::printf("%s\n", area.str().c_str());

    std::printf("High-density designs (Sec. 3.1.3):\n");
    std::printf("  1-ported: %.0f bytes/mm^2 marginal density\n",
                model.densityBytesPerMm2(1, SramDesign::HighDensity));
    std::printf("  2-ported: %.0f bytes/mm^2 marginal density\n",
                model.densityBytesPerMm2(2, SramDesign::HighDensity));
    std::printf("  4-ported high-performance: %.0f bytes/mm^2\n",
                model.densityBytesPerMm2(4,
                                         SramDesign::HighPerformance));
    std::printf("  32KB from 16Kx1 modules: %.1f mm^2, %.2f ns "
                "access\n",
                model.composedAreaMm2(32768, 2048, 1,
                                      SramDesign::HighDensity),
                model.composedDelayNs(32768, 2048, 1,
                                      SramDesign::HighDensity));
    std::printf("\nPaper shape: ~400 B/mm^2 at 4 ports; >2600 (1p) "
                "and >2200 (2p)\nB/mm^2 for the dense designs; 32KB "
                "= 12.9 mm^2 (Fig 5).\n");
}

void
fig5Area()
{
    AreaEstimator area;
    ClockEstimator clock;

    std::printf("Fig 5: Area for Datapath I4C8S4 "
                "(paper: cluster 21.3 mm^2, datapath 181.4 mm^2)\n\n");
    auto cfg = models::i4c8s4();
    std::printf("%s\n", area.estimate(cfg).str(cfg).c_str());

    std::printf("Table 1/2 header rows (paper area: 181.4 181.4 "
                "183.5 180 217 199.5 249 mm^2;\n"
                "paper relative clock: 1.0 0.6 0.95 1.3 1.3 0.95 "
                "1.3)\n\n");
    TextTable t;
    t.header({"model", "area mm^2", "clock MHz", "relative",
              "chip power W"});
    auto ref = models::i4c8s4();
    for (const auto &e : ModelRegistry::instance().entries()) {
        auto m = models::byName(e.name);
        double mhz = clock.clockMhz(m);
        t.row({e.name, TextTable::num(area.datapathMm2(m), 1),
               TextTable::num(mhz, 0),
               TextTable::num(clock.relativeClock(m, ref), 2),
               TextTable::num(area.chipPowerWatts(m, mhz / 1000.0),
                              1)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("Paper: clock rates 650-850 MHz; power 'in the 50 W "
                "range';\ncrossbar is ~3%% of chip area.\n");
}

void
table1Headers()
{
    AreaEstimator area;
    ClockEstimator clock;
    auto ref = models::i4c8s4();

    std::printf("Table 1 header rows\n");
    std::printf("paper relative clock: 1.0  0.6  0.95  1.3  1.3\n");
    std::printf("paper area (mm^2):    181.4 181.4 183.5 180 217\n\n");

    TextTable t;
    t.header({"model", "relative", "MHz", "area mm^2", "stages(ns): "
              "rf / exec / mem / mult / xbar"});
    for (const auto &m : models::table1Models()) {
        ClockBreakdown b = clock.estimate(m);
        t.row({m.name,
               TextTable::num(clock.relativeClock(m, ref), 2),
               TextTable::num(b.clockMhz, 0),
               TextTable::num(area.datapathMm2(m), 1),
               TextTable::num(b.regFileNs, 2) + " / " +
                   TextTable::num(b.executeNs, 2) + " / " +
                   TextTable::num(b.memoryNs, 2) + " / " +
                   TextTable::num(b.multiplyNs, 2) + " / " +
                   TextTable::num(b.crossbarNs, 2)});
    }
    std::printf("%s\n", t.str().c_str());
}

} // anonymous namespace

int
cmdFigs(const DriverOptions &opts)
{
    // figs runs no sweeps, but it shares the observability surface:
    // each figure is a timed phase, so --profile/--stats/--ledger
    // work here exactly like on the experiment subcommands.
    Observability sinks(opts);
    const obs::StatsScope phase = obs::globalScope("phase");

    std::vector<std::string> which = opts.positional;
    if (which.empty())
        which = {"fig2", "fig3", "fig4", "fig5", "headers"};
    for (const std::string &name : which) {
        auto timed = [&phase, &name](auto &&fig) {
            obs::timedPhase(phase, name.c_str(), [&fig] {
                fig();
                return 0;
            });
        };
        if (name == "fig2") {
            timed(fig2Crossbar);
        } else if (name == "fig3") {
            timed(fig3Regfile);
        } else if (name == "fig4") {
            timed(fig4Sram);
        } else if (name == "fig5") {
            timed(fig5Area);
        } else if (name == "headers") {
            timed(table1Headers);
        } else {
            std::fprintf(stderr,
                         "vvsp: unknown figure '%s' (figures: fig2 "
                         "fig3 fig4 fig5 headers)\n",
                         name.c_str());
            std::exit(2);
        }
    }
    return 0;
}

} // namespace cli
} // namespace vvsp

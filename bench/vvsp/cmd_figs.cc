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

/**
 * A megacell figure's two tables, delay (ns, 2 decimals) then area
 * (mm^2, `area_precision` decimals): one row per `rows` value, the
 * first column headed `row_head`, and one column per `cols` value,
 * headed `col_head(c)` plus " delay(ns)" or " area(mm^2)".
 */
template <typename Col, typename Head, typename Delay, typename Area>
void
printMegacellTables(const char *row_head, const std::vector<int> &rows,
                    const std::vector<Col> &cols, Head col_head,
                    Delay delay, Area area, int area_precision)
{
    auto table = [&](const char *unit, const auto &value,
                     int precision) {
        TextTable t;
        std::vector<std::string> head{row_head};
        for (Col c : cols)
            head.push_back(col_head(c) + unit);
        t.header(head);
        for (int r : rows) {
            std::vector<std::string> row{std::to_string(r)};
            for (Col c : cols)
                row.push_back(TextTable::num(value(r, c), precision));
            t.row(row);
        }
        std::printf("%s\n", t.str().c_str());
    };
    table(" delay(ns)", delay, 2);
    table(" area(mm^2)", area, area_precision);
}

/** Column heading of a port count: "6p". */
std::string
portsHead(int ports)
{
    return std::to_string(ports) + "p";
}

void
fig2Crossbar()
{
    CrossbarModel model;
    std::printf("Fig 2: Delay and Area for 16-bit Crossbar Switches\n\n");
    printMegacellTables(
        "ports", CrossbarModel::standardPorts(),
        CrossbarModel::standardDriversUm(),
        [](double w) { return TextTable::num(w, 1) + "um"; },
        [&](int ports, double w) { return model.delayNs(ports, w); },
        [&](int ports, double w) { return model.areaMm2(ports, w); }, 2);
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
    printMegacellTables(
        "registers", RegisterFileModel::standardSizes(),
        RegisterFileModel::standardPorts(), portsHead,
        [&](int r, int p) { return model.delayNs(r, p); },
        [&](int r, int p) { return model.areaMm2(r, p); }, 2);
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
    printMegacellTables(
        "bytes", SramModel::standardSizes(), SramModel::standardPorts(),
        portsHead,
        [&](int bytes, int p) { return model.delayNs(bytes, p); },
        [&](int bytes, int p) { return model.areaMm2(bytes, p); }, 3);

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

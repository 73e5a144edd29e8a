/**
 * @file
 * `--json` and `--stats=json` stay valid JSON whatever a machine is
 * called: the real `vvsp` binary (VVSP_CLI_PATH) runs on a JSON
 * machine file whose name holds a tab, and its stdout must parse
 * with json::parse and give the name back unchanged. A multi-section
 * `--json` run is one document, `utilization --stats` samples every
 * loop its simulated units software-pipeline, and
 * `utilization --trace` draws the same pipeline diagrams at any
 * thread count.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment_spec.hh"
#include "support/json.hh"

namespace vvsp
{
namespace
{

#ifdef VVSP_CLI_PATH

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            (stem + "-" + std::to_string(::getpid())))
        .string();
}

/** Run `vvsp <args>` with stdout to a file; return {status, stdout}. */
std::pair<int, std::string>
runVvsp(const std::string &args)
{
    const std::string out = tempPath("vvsp-cli-json") + ".out";
    const std::string cmd = "\"" + std::string(VVSP_CLI_PATH) + "\" " +
                            args + " > \"" + out + "\" 2>/dev/null";
    int status = std::system(cmd.c_str());
    std::ifstream in(out);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(out.c_str());
    int code = status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status)
                                                : -1;
    return {code, text.str()};
}

/** Write a machine file named `name` (JSON-escaped) and return it. */
std::string
machineFile(const std::string &stem, const std::string &escaped_name)
{
    const std::string path = tempPath(stem) + ".json";
    std::ofstream(path) << "{\"name\": \"" << escaped_name << "\"}\n";
    return path;
}

TEST(CliJson, Table1JsonEscapesMachineName)
{
    const std::string machine = machineFile("vvsp-tab-table1", "lite\\ttab");
    auto [code, out] = runVvsp(
        "table1 colorconv --json --variant=List-scheduled --machine=\"" +
        machine + "\" --no-disk-cache --threads=1");
    std::remove(machine.c_str());
    ASSERT_EQ(code, 0) << out;

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(out, doc, error)) << error << "\n" << out;
    const json::Value *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->array().size(), 1u);
    const json::Value *model = cells->array()[0].find("model");
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->asString(), "lite\ttab");
}

TEST(CliJson, StatsJsonEscapesMachineName)
{
    const std::string machine = machineFile("vvsp-tab-util", "i4\\ttab");
    auto [code, out] = runVvsp("utilization --machine=\"" + machine +
                               "\" --stats=json --no-disk-cache");
    std::remove(machine.c_str());
    ASSERT_EQ(code, 0) << out;

    const std::string marker = "\n== stats ==\n";
    size_t at = out.find(marker);
    ASSERT_NE(at, std::string::npos) << out;
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(out.substr(at + marker.size()), doc, error))
        << error;
    const json::Value *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    int named = 0;
    for (const auto &[path, value] : counters->members()) {
        if (path.rfind("sim/i4\ttab/", 0) == 0)
            named++;
    }
    EXPECT_GT(named, 0) << "no sim/<model>/ counter carries the name";
}

TEST(CliJson, UtilizationStatsSampleEverySimulatedLoop)
{
    // The cycle-simulated units run the composer's schedules, so each
    // loop their modulo scheduler runs on is sampled in sched/swp/*.
    auto [code, out] = runVvsp("utilization --model=I4C8S4 --threads=1 "
                               "--no-disk-cache --stats=json");
    ASSERT_EQ(code, 0) << out;

    const std::string marker = "\n== stats ==\n";
    size_t at = out.find(marker);
    ASSERT_NE(at, std::string::npos) << out;
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(out.substr(at + marker.size()), doc, error))
        << error;
    const json::Value *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    const json::Value *loops = counters->find("sched/swp/loops");
    const json::Value *runs = counters->find("sched/modulo_runs");
    ASSERT_NE(loops, nullptr);
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(loops->asNumber(), 35);
    EXPECT_EQ(runs->asNumber(), 35);
}

TEST(CliJson, MultiSectionJsonIsOneDocument)
{
    // A row no section has: six empty sections, cheap to run.
    auto [code, out] = runVvsp("table1 --json --variant=NoSuchRow "
                               "--threads=1 --no-disk-cache");
    ASSERT_EQ(code, 0) << out;

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(out, doc, error)) << error << "\n" << out;
    ASSERT_TRUE(doc.isArray()) << out;
    const ExperimentSpec &spec = *findExperimentSpec("table1");
    ASSERT_EQ(spec.sections.size(), 6u);
    ASSERT_EQ(doc.array().size(), spec.sections.size());
    for (size_t i = 0; i < spec.sections.size(); ++i) {
        const json::Value *kernel = doc.array()[i].find("kernel");
        ASSERT_NE(kernel, nullptr);
        EXPECT_EQ(kernel->asString(), spec.sections[i].kernel);
        const json::Value *cells = doc.array()[i].find("cells");
        ASSERT_NE(cells, nullptr);
        EXPECT_TRUE(cells->array().empty());
    }
}

/** A JSON value written back out, members in document order. */
std::string
render(const json::Value &v)
{
    switch (v.kind()) {
    case json::Value::Kind::Null:
        return "null";
    case json::Value::Kind::Bool:
        return v.asBool() ? "true" : "false";
    case json::Value::Kind::Number: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v.asNumber());
        return buf;
    }
    case json::Value::Kind::String:
        return "\"" + json::escape(v.asString()) + "\"";
    case json::Value::Kind::Array: {
        std::string out = "[";
        for (const json::Value &e : v.array())
            out += render(e) + ",";
        return out + "]";
    }
    case json::Value::Kind::Object: {
        std::string out = "{";
        for (const auto &[key, value] : v.members())
            out += "\"" + json::escape(key) + "\":" + render(value) + ",";
        return out + "}";
    }
    }
    return "";
}

/** The CycleSim pipeline-diagram records of a trace file: every
 *  event at pid 100 and above, in file order. */
std::vector<std::string>
simTraceEvents(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(text.str(), doc, error)) << error;
    std::vector<std::string> events;
    const json::Value *all = doc.find("traceEvents");
    if (all == nullptr)
        return events;
    for (const json::Value &e : all->array()) {
        const json::Value *pid = e.find("pid");
        if (pid != nullptr && pid->asNumber() >= 100)
            events.push_back(render(e));
    }
    return events;
}

TEST(CliTrace, UtilizationDiagramsMatchAcrossThreadCounts)
{
    // The units run concurrently at --threads=4 and each records its
    // own trace; merged, the diagrams must equal the serial run's.
    // The sweep timeline below pid 100 is wall-clock and differs.
    std::vector<std::string> events[2];
    const int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        const std::string trace =
            tempPath("vvsp-util-trace-" + std::to_string(threads[i])) +
            ".json";
        auto [code, out] = runVvsp(
            "utilization --model=I4C8S4 --no-disk-cache --threads=" +
            std::to_string(threads[i]) + " --trace=\"" + trace + "\"");
        ASSERT_EQ(code, 0) << out;
        events[i] = simTraceEvents(trace);
        std::remove(trace.c_str());
    }
    EXPECT_GT(events[0].size(), 1000u);
    EXPECT_TRUE(events[0] == events[1])
        << events[0].size() << " vs " << events[1].size() << " events";
}

#endif // VVSP_CLI_PATH

} // anonymous namespace
} // namespace vvsp

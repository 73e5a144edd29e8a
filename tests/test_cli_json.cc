/**
 * @file
 * `--json` and `--stats=json` stay valid JSON whatever a machine is
 * called: the real `vvsp` binary (VVSP_CLI_PATH) runs on a JSON
 * machine file whose name holds a tab, and its stdout must parse
 * with json::parse and give the name back unchanged.
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

#endif // VVSP_CLI_PATH

} // anonymous namespace
} // namespace vvsp

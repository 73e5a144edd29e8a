/**
 * @file
 * DatapathConfig JSON (de)serialization: round trips over every
 * registered model, canonical-key stability (the disk-cache contract
 * that a machine loaded from JSON shares cache entries with the
 * identically-parameterized C++ model), and rejection of malformed
 * documents — bad port counts, zero clusters, unknown keys, wrong
 * types, truncated JSON.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "arch/config_json.hh"
#include "arch/model_registry.hh"
#include "arch/models.hh"
#include "core/disk_cache.hh"
#include "core/experiment_cache.hh"
#include "kernels/kernel.hh"

using namespace vvsp;

namespace
{

/** Fresh scratch directory, removed on destruction. */
struct TempDir
{
    TempDir()
    {
        static int seq = 0;
        path = (std::filesystem::temp_directory_path() /
                ("vvsp-config-json-test-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(seq++)))
                   .string();
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

} // anonymous namespace

TEST(ConfigJson, RoundTripsEveryRegisteredModel)
{
    for (const auto &e : ModelRegistry::instance().entries()) {
        DatapathConfig cfg = ModelRegistry::instance().get(e.name);
        std::string text = configToJson(cfg);
        std::string error;
        auto back = configFromJson(text, &error);
        ASSERT_TRUE(back.has_value()) << e.name << ": " << error;
        EXPECT_EQ(cfg, *back) << e.name;
        EXPECT_EQ(cfg.name, back->name);
    }
}

TEST(ConfigJson, CanonicalKeyIsRoundTripStable)
{
    for (const auto &e : ModelRegistry::instance().entries()) {
        DatapathConfig cfg = ModelRegistry::instance().get(e.name);
        std::string error;
        auto back = configFromJson(configToJson(cfg), &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_EQ(canonicalMachineKey(cfg),
                  canonicalMachineKey(*back))
            << e.name;
    }
}

TEST(ConfigJson, CanonicalKeyIgnoresDisplayName)
{
    DatapathConfig a = models::i2c16s4();
    DatapathConfig b = a;
    b.name = "renamed-machine";
    EXPECT_EQ(canonicalMachineKey(a), canonicalMachineKey(b));
    // ... but distinguishes actual parameter changes.
    DatapathConfig c = a;
    c.cluster.registers *= 2;
    EXPECT_NE(canonicalMachineKey(a), canonicalMachineKey(c));
}

TEST(ConfigJson, OmittedFieldsKeepI4C8S4Defaults)
{
    std::string error;
    auto cfg = configFromJson("{}", &error);
    ASSERT_TRUE(cfg.has_value()) << error;
    DatapathConfig base = models::i4c8s4();
    EXPECT_EQ(canonicalMachineKey(base), canonicalMachineKey(*cfg));
    EXPECT_EQ(cfg->name, "custom");
}

TEST(ConfigJson, PartialDocumentOverridesOnlyStatedFields)
{
    std::string error;
    auto cfg = configFromJson(R"({
        "name": "half-wide",
        "clusters": 4,
        "cluster": {"registers": 256}
    })",
                              &error);
    ASSERT_TRUE(cfg.has_value()) << error;
    EXPECT_EQ(cfg->name, "half-wide");
    EXPECT_EQ(cfg->clusters, 4);
    EXPECT_EQ(cfg->cluster.registers, 256);
    // Unstated fields keep the I4C8S4 defaults.
    DatapathConfig base = models::i4c8s4();
    EXPECT_EQ(cfg->cluster.issueSlots, base.cluster.issueSlots);
    EXPECT_EQ(cfg->pipelineStages, base.pipelineStages);
}

TEST(ConfigJson, RejectsBadPortCounts)
{
    std::string error;
    EXPECT_FALSE(configFromJson(
                     R"({"cluster": {"issue_slots": 4,
                                     "reg_file_ports": 5}})",
                     &error)
                     .has_value());
    EXPECT_NE(error.find("register-file"), std::string::npos)
        << error;
}

TEST(ConfigJson, RejectsZeroClusters)
{
    std::string error;
    EXPECT_FALSE(
        configFromJson(R"({"clusters": 0})", &error).has_value());
    EXPECT_NE(error.find("at least one cluster"), std::string::npos)
        << error;
}

TEST(ConfigJson, RejectsZeroMemoryBanks)
{
    std::string error;
    EXPECT_FALSE(configFromJson(R"({"cluster": {"mem_banks": 0}})",
                                &error)
                     .has_value());
    EXPECT_NE(error.find("memory bank"), std::string::npos) << error;
}

TEST(ConfigJson, RejectsMalformedJson)
{
    std::string error;
    EXPECT_FALSE(
        configFromJson("{\"clusters\": ", &error).has_value());
    EXPECT_NE(error.find("malformed JSON"), std::string::npos)
        << error;

    EXPECT_FALSE(configFromJson("[1, 2]", &error).has_value());
    EXPECT_NE(error.find("object"), std::string::npos) << error;
}

TEST(ConfigJson, RejectsUnknownKeysAndWrongTypes)
{
    std::string error;
    EXPECT_FALSE(
        configFromJson(R"({"clustres": 8})", &error).has_value());
    EXPECT_NE(error.find("clustres"), std::string::npos) << error;

    EXPECT_FALSE(configFromJson(R"({"cluster": {"aluss": 4}})",
                                &error)
                     .has_value());
    EXPECT_NE(error.find("aluss"), std::string::npos) << error;

    EXPECT_FALSE(
        configFromJson(R"({"clusters": "eight"})", &error)
            .has_value());
    EXPECT_NE(error.find("integer"), std::string::npos) << error;

    EXPECT_FALSE(
        configFromJson(R"({"addressing": "indexed"})", &error)
            .has_value());
    EXPECT_NE(error.find("addressing"), std::string::npos) << error;
}

TEST(ConfigJson, RejectsInconsistentMultiplier)
{
    // The 16x16 pipelined multiplier requires the 5-stage pipeline.
    std::string error;
    EXPECT_FALSE(configFromJson(
                     R"({"multiplier": "mul16x16_pipelined",
                         "multiply_stages": 2,
                         "pipeline_stages": 4})",
                     &error)
                     .has_value());
    EXPECT_NE(error.find("5-stage"), std::string::npos) << error;
}

TEST(ConfigJson, LoadMachineFileUsesStemAsFallbackName)
{
    TempDir dir;
    std::string path = dir.path + "/my-machine.json";
    {
        std::ofstream out(path);
        out << R"({"clusters": 4})";
    }
    std::string error;
    auto cfg = loadMachineFile(path, &error);
    ASSERT_TRUE(cfg.has_value()) << error;
    EXPECT_EQ(cfg->name, "my-machine");

    EXPECT_FALSE(
        loadMachineFile(dir.path + "/absent.json", &error)
            .has_value());
    EXPECT_NE(error.find("absent.json"), std::string::npos) << error;
}

TEST(ConfigJson, LoweringKeyStableAcrossJsonRoundTrip)
{
    // The experiment-cache contract: a machine loaded from JSON and
    // the identically-parameterized C++ model produce the same result
    // key (whose machine part is the lowering's), so they share disk
    // entries.
    const KernelSpec &k = kernelByName("RGB:YCrCb converter/subsampler");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variants.front();

    DatapathConfig cfg = models::i2c16s5();
    std::string error;
    auto back = configFromJson(configToJson(cfg), &error);
    ASSERT_TRUE(back.has_value()) << error;
    back->name = "loaded-from-disk";

    req.model = cfg;
    std::string key_a = ExperimentCache::resultKey(req, cfg);
    req.model = *back;
    std::string key_b = ExperimentCache::resultKey(req, *back);
    EXPECT_EQ(key_a, key_b);
}

TEST(ConfigJson, DiskCacheHitsAcrossJsonRoundTrip)
{
    // Store a result under the original model's key, then look it up
    // with the round-tripped config: same canonical form, same file.
    TempDir dir;
    DiskCache disk(dir.path);

    const KernelSpec &k = kernelByName("RGB:YCrCb converter/subsampler");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variants.front();
    req.model = models::i4c8s5();

    ExperimentResult res;
    res.kernel = k.name;
    res.variant = req.variant->name;
    res.model = req.model.name;
    res.cyclesPerFrame = 123456;
    ASSERT_TRUE(
        disk.store(ExperimentCache::resultKey(req, req.model), res));

    std::string error;
    auto back = configFromJson(configToJson(req.model), &error);
    ASSERT_TRUE(back.has_value()) << error;
    ExperimentResult loaded;
    EXPECT_TRUE(disk.load(ExperimentCache::resultKey(req, *back),
                          loaded));
    EXPECT_EQ(loaded.cyclesPerFrame, res.cyclesPerFrame);
}

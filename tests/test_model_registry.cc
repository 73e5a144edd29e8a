/**
 * @file
 * Model registry: the seven paper machines resolve by name, the
 * +2LS/+AD derivation suffixes compose, resolve() routes JSON
 * machine files and registry names through one entry point, and
 * misses produce diagnostics listing the registered models instead
 * of a bare abort.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "arch/model_registry.hh"
#include "arch/models.hh"

using namespace vvsp;

TEST(ModelRegistry, SevenPaperModelsRegistered)
{
    auto names = ModelRegistry::instance().names();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "I4C8S4");
    for (const char *name :
         {"I4C8S4", "I4C8S4C", "I4C8S5", "I2C16S4", "I2C16S5",
          "I4C8S5M16", "I2C16S5M16"}) {
        auto cfg = ModelRegistry::instance().find(name);
        ASSERT_TRUE(cfg.has_value()) << name;
        EXPECT_EQ(cfg->name, name);
        EXPECT_TRUE(cfg->validationError().empty());
    }
}

TEST(ModelRegistry, MatchesFactoryFunctions)
{
    EXPECT_EQ(ModelRegistry::instance().get("I4C8S4"),
              models::i4c8s4());
    EXPECT_EQ(ModelRegistry::instance().get("I2C16S4"),
              models::i2c16s4());
    EXPECT_EQ(ModelRegistry::instance().get("I2C16S5M16"),
              models::i2c16s5m16());
}

TEST(ModelRegistry, DerivationSuffixes)
{
    auto dual = ModelRegistry::instance().find("I4C8S4+2LS");
    ASSERT_TRUE(dual.has_value());
    EXPECT_EQ(dual->name, "I4C8S4+2LS");
    EXPECT_EQ(*dual, models::withDualLoadStore(models::i4c8s4()));

    auto both = ModelRegistry::instance().find("I2C16S5+2LS+AD");
    ASSERT_TRUE(both.has_value());
    EXPECT_EQ(both->name, "I2C16S5+2LS+AD");
    EXPECT_TRUE(both->cluster.hasAbsDiff);
    EXPECT_EQ(both->cluster.memPortsPerBank, 2);

    // I2C16S4 already has a load/store unit on each of its two
    // slots; a third has no slot to sit on.
    DatapathConfig three = models::i2c16s4();
    three.name += "+2LS";
    three.cluster.numLoadStoreUnits += 1;
    EXPECT_EQ(three.validationError(),
              "I2C16S4+2LS: 3 load/store units but only 2 issue slots "
              "(a slot holds at most one load/store unit)");
    EXPECT_EXIT(ModelRegistry::instance().find("I2C16S4+2LS"),
                ::testing::ExitedWithCode(1),
                "I2C16S4\\+2LS: 3 load/store units but only 2 issue "
                "slots");

    EXPECT_FALSE(
        ModelRegistry::instance().find("I4C8S4+BOGUS").has_value());
    EXPECT_FALSE(
        ModelRegistry::instance().find("NOPE+2LS").has_value());
}

TEST(ModelRegistry, ResolveRoutesNamesAndFiles)
{
    std::string error;
    auto named =
        ModelRegistry::instance().resolve("I2C16S5", &error);
    ASSERT_TRUE(named.has_value()) << error;
    EXPECT_EQ(*named, models::i2c16s5());

    auto path = (std::filesystem::temp_directory_path() /
                 ("vvsp-registry-test-" + std::to_string(::getpid()) +
                  ".json"))
                    .string();
    {
        std::ofstream out(path);
        out << R"({"name": "from-file", "clusters": 2})";
    }
    auto loaded = ModelRegistry::instance().resolve(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->name, "from-file");
    EXPECT_EQ(loaded->clusters, 2);
    std::filesystem::remove(path);
}

TEST(ModelRegistry, MissListsRegisteredModels)
{
    std::string error;
    EXPECT_FALSE(
        ModelRegistry::instance().resolve("I9C99S9", &error)
            .has_value());
    // The diagnostic teaches the full vocabulary: every registered
    // name, the suffix grammar, and the machine-file escape hatch.
    EXPECT_NE(error.find("I9C99S9"), std::string::npos) << error;
    EXPECT_NE(error.find("I4C8S4"), std::string::npos) << error;
    EXPECT_NE(error.find("I2C16S5M16"), std::string::npos) << error;
    EXPECT_NE(error.find("+2LS"), std::string::npos) << error;
    EXPECT_NE(error.find(".json"), std::string::npos) << error;
}

/**
 * @file
 * Differential tests for the bytecode engine (sim/bytecode.hh): the
 * compiled replay loop must be bit-compatible with the tree-walking
 * Interpreter oracle — identical Profile vectors and identical
 * post-run MemoryImage contents — across every kernel x variant x
 * registry model, plus hand-built IR exercising the control-flow
 * corners (predication, loop re-entry, memory bounds).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "ir/builder.hh"
#include "obs/stats_registry.hh"
#include "sim/bytecode.hh"
#include "sim/interpreter.hh"

namespace vvsp
{
namespace
{

Operand
R(Vreg v)
{
    return Operand::ofReg(v);
}

Operand
K(int32_t v)
{
    return Operand::ofImm(v);
}

void
expectProfilesEqual(const Profile &oracle, const Profile &bc)
{
    EXPECT_EQ(oracle.blockExec, bc.blockExec);
    EXPECT_EQ(oracle.loopEntries, bc.loopEntries);
    EXPECT_EQ(oracle.loopIters, bc.loopIters);
    EXPECT_EQ(oracle.ifThen, bc.ifThen);
    EXPECT_EQ(oracle.ifElse, bc.ifElse);
    EXPECT_EQ(oracle.dynamicOps, bc.dynamicOps);
    EXPECT_EQ(oracle.nullifiedOps, bc.nullifiedOps);
}

void
expectImagesEqual(const Function &fn, const MemoryImage &oracle,
                  const MemoryImage &bc)
{
    ASSERT_EQ(oracle.numBuffers(), bc.numBuffers());
    for (size_t i = 0; i < fn.buffers.size(); ++i) {
        int id = fn.buffers[i].id;
        EXPECT_EQ(oracle.bufferWords(id), bc.bufferWords(id))
            << "buffer '" << fn.buffers[i].name << "' (id " << id
            << ") diverges";
    }
}

/** Run both engines on fresh images and require identical outcomes. */
void
expectEnginesAgree(const Function &fn)
{
    MemoryImage oracle_mem(fn);
    MemoryImage bc_mem(fn);
    Profile oracle = Interpreter(fn).run(oracle_mem);
    Profile bc = BytecodeEngine(fn).run(bc_mem);
    expectProfilesEqual(oracle, bc);
    expectImagesEqual(fn, oracle_mem, bc_mem);
}

// ---- whole-pipeline differential sweep -------------------------------

struct DiffCase
{
    std::string kernel;
    std::string variant;
    std::string model;
};

void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << c.kernel << " / " << c.variant << " / " << c.model;
}

class BytecodeDiff : public ::testing::TestWithParam<DiffCase>
{
};

/**
 * The property the whole PR rests on: for every lowered cell of the
 * experiment grid, the bytecode engine and the tree walker produce
 * bit-identical profiles and memory images on the same prepared unit.
 */
TEST_P(BytecodeDiff, MatchesTreeWalkerBitExactly)
{
    const DiffCase &t = GetParam();
    const KernelSpec &kernel = kernelByName(t.kernel);
    const VariantSpec &variant = kernel.variant(t.variant);
    MachineModel machine(variantConfig(variant, models::byName(t.model)));
    Function fn = lowerVariant(kernel, variant, machine);

    FrameGeometry geom{48, 32};
    MemoryImage oracle_mem(fn);
    MemoryImage bc_mem(fn);
    kernel.prepare(fn, oracle_mem, geom, /*index=*/0);
    kernel.prepare(fn, bc_mem, geom, /*index=*/0);

    Profile oracle = Interpreter(fn).run(oracle_mem);
    Profile bc = BytecodeEngine(fn).run(bc_mem);
    expectProfilesEqual(oracle, bc);
    expectImagesEqual(fn, oracle_mem, bc_mem);
}

std::vector<DiffCase>
allCells()
{
    std::vector<std::string> model_names;
    for (const auto &m : models::table1Models())
        model_names.push_back(m.name);
    for (const auto &m : models::table2Models()) {
        if (std::find(model_names.begin(), model_names.end(),
                      m.name) == model_names.end())
            model_names.push_back(m.name);
    }
    std::vector<DiffCase> cases;
    for (const KernelSpec &k : allKernels()) {
        for (const VariantSpec &v : k.variants) {
            for (const std::string &m : model_names)
                cases.push_back({k.name, v.name, m});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(EveryCell, BytecodeDiff,
                         ::testing::ValuesIn(allCells()));

// ---- control-flow corners (hand-built IR) ----------------------------

TEST(Bytecode, PredicationNullifiesLikeOracle)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg p0 = b.movi(0);
    Vreg v = b.movi(11);
    Operation mov;
    mov.op = Opcode::Mov;
    mov.dst = v;
    mov.src[0] = K(99);
    mov.pred = R(p0);
    mov.predSense = true; // pred false -> nullified.
    b.emitOp(mov);
    b.store(buf, R(v), K(0));
    Operation st;
    st.op = Opcode::Store;
    st.src = {K(55), K(1), Operand::none()};
    st.buffer = buf;
    st.pred = R(p0);
    st.predSense = false; // pred false, sense false -> executes.
    b.emitOp(st);
    Function fn = b.finish();

    expectEnginesAgree(fn);
    MemoryImage mem(fn);
    Profile p = BytecodeEngine(fn).run(mem);
    EXPECT_EQ(mem.read(buf, 0), 11);
    EXPECT_EQ(mem.read(buf, 1), 55);
    EXPECT_EQ(p.nullifiedOps, 1u);
}

TEST(Bytecode, NestedLoopReentryResetsInnerState)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg acc = b.movi(0);
    b.beginLoop(3, "outer");
    auto &inner = b.beginLoop(4, "inner");
    b.emitTo(acc, Opcode::Add, R(acc), R(inner.inductionVar));
    b.endLoop();
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();

    expectEnginesAgree(fn);
    MemoryImage mem(fn);
    Profile p = BytecodeEngine(fn).run(mem);
    EXPECT_EQ(mem.read(buf, 0), 3 * (0 + 1 + 2 + 3));
    uint64_t inner_entries = 0, inner_iters = 0;
    for (size_t i = 0; i < p.loopEntries.size(); ++i) {
        if (p.loopEntries[i] == 3)
            inner_entries = p.loopEntries[i];
        inner_iters = std::max(inner_iters, p.loopIters[i]);
    }
    EXPECT_EQ(inner_entries, 3u);
    EXPECT_EQ(inner_iters, 12u);
}

TEST(Bytecode, ZeroTripLoopInsideOneTripLoopMatchesOracle)
{
    // The inner loop is entered once and runs no iteration, so its
    // body leaves `last` and the second word alone.
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg last = b.movi(7);
    auto &outer = b.beginLoop(1, "outer");
    b.emitTo(last, Opcode::Add, R(last), R(outer.inductionVar));
    auto &inner = b.beginLoop(0, "inner");
    b.emitTo(last, Opcode::Mov, R(inner.inductionVar));
    b.store(buf, K(1), K(1));
    b.endLoop();
    b.endLoop();
    b.store(buf, R(last), K(0));
    Function fn = b.finish();

    expectEnginesAgree(fn);
    MemoryImage mem(fn);
    Profile p = BytecodeEngine(fn).run(mem);
    EXPECT_EQ(mem.read(buf, 0), 7);
    EXPECT_EQ(mem.read(buf, 1), 0);
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() != NodeKind::Loop)
            return;
        const auto &loop = static_cast<const LoopNode &>(n);
        const size_t id = static_cast<size_t>(loop.id);
        EXPECT_EQ(p.loopEntries[id], 1u) << loop.label;
        EXPECT_EQ(p.loopIters[id], loop.label == "outer" ? 1u : 0u)
            << loop.label;
    });
}

TEST(BytecodeDeath, MemoryBoundsStillChecked)
{
    {
        IRBuilder b("t");
        int buf = b.buffer("o", 2);
        b.store(buf, K(1), K(5)); // out-of-bounds write.
        Function fn = b.finish();
        MemoryImage mem(fn);
        EXPECT_DEATH(BytecodeEngine(fn).run(mem), "beyond buffer");
    }
    {
        IRBuilder b("t");
        int buf = b.buffer("o", 2);
        Vreg v = b.load(buf, K(7), K(0)); // out-of-bounds read.
        b.store(buf, R(v), K(0));
        Function fn = b.finish();
        MemoryImage mem(fn);
        EXPECT_DEATH(BytecodeEngine(fn).run(mem), "beyond buffer");
    }
}

// ---- program introspection -------------------------------------------

TEST(Bytecode, ConstPoolDeduplicatesImmediates)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    Vreg x = b.movi(7);
    Vreg y = b.add(R(x), K(7)); // same immediate again.
    Vreg z = b.add(R(y), K(9));
    b.store(buf, R(z), K(0));
    Function fn = b.finish();

    BytecodeProgram prog(fn);
    EXPECT_EQ(prog.constPool().size(), 3u); // {7, 9, 0}, deduped.
    EXPECT_EQ(prog.numRegSlots(),
              prog.constBase() +
                  static_cast<uint32_t>(prog.constPool().size()));

    BytecodeEngine engine(fn);
    MemoryImage mem(fn);
    engine.run(mem);
    EXPECT_EQ(engine.regValue(z), 7 + 7 + 9);
    EXPECT_EQ(mem.read(buf, 0), 23);
}

// ---- unit-profile memoization ----------------------------------------

/**
 * Two machines that differ only in issue width lower to the same
 * function, so a batch holding both must collapse their interp_sim
 * stages to one run under the machine-free profile key (the second
 * cell reuses it).
 */
TEST(Bytecode, ProfileMemoSharedAcrossIssueWidths)
{
    const KernelSpec &k =
        kernelByName("RGB:YCrCb converter/subsampler");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variant("Sequential");
    req.model = models::byName("I4C8S4");
    req.geometry = FrameGeometry{48, 32};
    req.profileUnits = 1;

    ExperimentRequest wide = req;
    wide.model.name = "I4C8S4-wide";
    wide.model.cluster.issueSlots += 1; // lowering-invariant change.
    wide.model.cluster.regFilePorts += 3; // ports the extra slot needs.

    obs::StatsRegistry stats;
    SweepOptions opts;
    opts.threads = 2;
    obs::setGlobalStats(&stats);
    std::vector<ExperimentResult> rs = SweepRunner(opts).run({req, wide});
    obs::setGlobalStats(nullptr);
    ASSERT_EQ(rs.size(), 2u);
    for (const ExperimentResult &r : rs) {
        EXPECT_TRUE(r.checked);
        EXPECT_TRUE(r.passed) << r.note;
    }
    EXPECT_EQ(stats.counterValue("stage/interp/requests"), 2u);
    EXPECT_EQ(stats.counterValue("stage/interp/unique"), 1u);
    EXPECT_EQ(stats.counterValue("phase/interp_sim/runs"), 1u);
}

} // namespace
} // namespace vvsp

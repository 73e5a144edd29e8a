#include "isa/disassembler.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "arch/model_registry.hh"
#include "support/logging.hh"
#include "video/bitstream.hh"

namespace vvsp
{

namespace
{

constexpr uint32_t kMaxOpcode = static_cast<uint32_t>(Opcode::BrCond);

int32_t
canonicalImm16(int32_t imm)
{
    return static_cast<int16_t>(static_cast<uint16_t>(imm));
}

int32_t
signExtend(uint32_t value, int bits)
{
    if (bits <= 0 || bits >= 32)
        return static_cast<int32_t>(value);
    uint32_t shifted = value << (32 - bits);
    return static_cast<int32_t>(shifted) >> (32 - bits);
}

// ---------------------------------------------------------------
// Binary decoding.
// ---------------------------------------------------------------

struct BinReader
{
    BitReader br;
    std::string err;

    BinReader(const uint8_t *data, size_t size) : br(data, size) {}

    bool ok() const { return err.empty() && br.ok(); }

    void
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg;
    }

    uint32_t
    get(int bits, const char *what)
    {
        if (!err.empty())
            return 0;
        uint32_t v = br.get(bits);
        if (!br.ok())
            err = format("truncated binary while reading %s", what);
        return v;
    }

    std::string
    getString(const char *what)
    {
        uint32_t len = get(16, what);
        if (!ok())
            return "";
        if (br.bitsLeft() < static_cast<uint64_t>(len) * 8) {
            fail(format("truncated binary while reading %s", what));
            return "";
        }
        std::string s;
        s.reserve(len);
        for (uint32_t i = 0; i < len; ++i)
            s.push_back(static_cast<char>(br.get(8)));
        return s;
    }
};

/** Where a decoded op came from, for diagnostics. */
std::string
slotName(const IsaFormat &fmt, int slot_idx)
{
    if (slot_idx < 0)
        return "ctrl";
    return format("c%d.s%d", slot_idx / fmt.slotsPerCluster,
                  slot_idx % fmt.slotsPerCluster);
}

bool
decodeOperand(BinReader &rd, Operand &out, int reg_bits,
              const IsaFormat &fmt, const std::string &where)
{
    uint32_t code = rd.get(2, where.c_str());
    if (!rd.ok())
        return false;
    switch (code) {
      case 0:
        out = Operand::none();
        return true;
      case 1:
        out = Operand::ofReg(rd.get(reg_bits, where.c_str()));
        return rd.ok();
      case 2:
        out = Operand::ofImm(signExtend(
            rd.get(fmt.immBits, where.c_str()), fmt.immBits));
        return rd.ok();
      default:
        rd.fail(format("bad operand descriptor at %s",
                       where.c_str()));
        return false;
    }
}

} // anonymous namespace

bool
decodeModule(const std::vector<uint8_t> &bytes, IsaModule &out,
             std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    BinReader rd(bytes.data(), bytes.size());
    uint32_t magic = rd.get(32, "magic"); // 'V','I','S','A'.
    if (!rd.ok() || magic != 0x56495341u)
        return fail("not a VISA binary (bad magic)");
    uint32_t version = rd.get(16, "version");
    if (!rd.ok())
        return fail(rd.err);
    if (version != isa_detail::kIsaBinaryVersion)
        return fail(format("unsupported binary version %u (want %d)",
                           version, isa_detail::kIsaBinaryVersion));

    IsaModule mod;
    mod.machine = rd.getString("machine name");
    mod.name = rd.getString("module name");
    IsaFormat &fmt = mod.fmt;
    fmt.clusters = static_cast<int>(rd.get(8, "format"));
    fmt.slotsPerCluster = static_cast<int>(rd.get(8, "format"));
    fmt.opcodeBits = static_cast<int>(rd.get(8, "format"));
    fmt.archRegBits = static_cast<int>(rd.get(8, "format"));
    fmt.immBits = static_cast<int>(rd.get(8, "format"));
    fmt.clusterBits = static_cast<int>(rd.get(8, "format"));
    uint32_t num_sections = rd.get(16, "section count");
    if (!rd.ok())
        return fail(rd.err);
    if (fmt.clusters <= 0 || fmt.slotsPerCluster <= 0 ||
        fmt.opcodeBits <= 0 || fmt.opcodeBits > 8 ||
        fmt.archRegBits <= 0 || fmt.immBits <= 0 ||
        fmt.immBits > 32 || fmt.clusterBits <= 0) {
        return fail("corrupt format header");
    }

    for (uint32_t si = 0; si < num_sections; ++si) {
        IsaSection sec;
        sec.label =
            rd.getString(format("header of section %u", si).c_str());
        uint32_t flags = rd.get(8, "section flags");
        sec.modulo = (flags & 1) != 0;
        sec.width1 = (flags & 2) != 0;
        uint32_t num_ops = rd.get(32, "op count");
        sec.length = static_cast<int>(rd.get(16, "length"));
        sec.ii = static_cast<int>(rd.get(16, "ii"));
        sec.stages = static_cast<int>(rd.get(16, "stages"));
        sec.maxLive = static_cast<int>(rd.get(16, "maxlive"));
        uint64_t hash_hi = rd.get(32, "ops hash");
        uint64_t hash_lo = rd.get(32, "ops hash");
        sec.opsHash = (hash_hi << 32) | hash_lo;
        isa_detail::SectionWidths w;
        w.regBits = static_cast<int>(rd.get(8, "reg width"));
        w.bufBits = static_cast<int>(rd.get(8, "buffer width"));
        w.stageBits = static_cast<int>(rd.get(8, "stage width"));
        w.seqBits = static_cast<int>(rd.get(8, "seq width"));
        if (!rd.ok())
            return fail(rd.err);

        if (sec.modulo && sec.ii <= 0)
            return fail(format("section '%s': modulo with ii=%d",
                               sec.label.c_str(), sec.ii));
        int words = sec.modulo ? sec.ii : sec.length;
        if (words <= 0)
            return fail(format("section '%s': no words",
                               sec.label.c_str()));
        uint64_t capacity = static_cast<uint64_t>(words) *
                            (fmt.totalSlots() + 1);
        if (num_ops > capacity)
            return fail(
                format("section '%s': %u ops cannot fit %d words",
                       sec.label.c_str(), num_ops, words));
        if (w.regBits < fmt.archRegBits || w.regBits > 32 ||
            w.bufBits <= 0 || w.bufBits > 32 || w.stageBits > 16 ||
            w.seqBits > 32) {
            return fail(format("section '%s': corrupt field widths",
                               sec.label.c_str()));
        }

        sec.ops.assign(num_ops, Operation{});
        sec.placed.assign(num_ops, PlacedOp{});
        std::vector<bool> seen(num_ops, false);
        std::vector<std::pair<Operation, PlacedOp>> issued;
        issued.reserve(num_ops);

        for (int word = 0; word < words && rd.ok(); ++word) {
            std::vector<int> present;
            for (int s = 0; s < fmt.totalSlots(); ++s)
                if (rd.get(1, "slot mask"))
                    present.push_back(s);
            if (rd.get(1, "slot mask"))
                present.push_back(-1);
            if (!rd.ok())
                return fail(format(
                    "truncated binary in the slot mask of section "
                    "'%s' word %d",
                    sec.label.c_str(), word));
            for (int slot_idx : present) {
                std::string where = format(
                    "section '%s' word %d slot %s",
                    sec.label.c_str(), word,
                    slotName(fmt, slot_idx).c_str());
                Operation op;
                uint32_t opc = rd.get(fmt.opcodeBits, where.c_str());
                if (!rd.ok())
                    return fail(rd.err);
                if (opc > kMaxOpcode)
                    return fail(format("bad opcode %u at %s", opc,
                                       where.c_str()));
                op.op = static_cast<Opcode>(opc);
                uint32_t pred_code = rd.get(2, where.c_str());
                if (pred_code == 3)
                    return fail(format("bad predicate descriptor "
                                       "at %s",
                                       where.c_str()));
                if (pred_code != 0) {
                    op.predSense = rd.get(1, where.c_str()) != 0;
                    if (pred_code == 1)
                        op.pred = Operand::ofReg(
                            rd.get(w.regBits, where.c_str()));
                    else
                        op.pred = Operand::ofImm(signExtend(
                            rd.get(fmt.immBits, where.c_str()),
                            fmt.immBits));
                }
                const OpcodeInfo &info = op.info();
                if (info.hasDst)
                    op.dst = rd.get(w.regBits, where.c_str());
                for (int i = 0; i < info.numSrcs; ++i) {
                    if (!decodeOperand(
                            rd, op.src[static_cast<size_t>(i)],
                            w.regBits, fmt, where))
                        return fail(rd.err.empty()
                                        ? format("bad operand at %s",
                                                 where.c_str())
                                        : rd.err);
                }
                if (info.isMemory)
                    op.buffer = static_cast<int>(
                        rd.get(w.bufBits, where.c_str()));
                if (info.fuClass == FuClass::Xbar)
                    op.dstCluster = static_cast<int>(
                        rd.get(fmt.clusterBits, where.c_str()));
                int stage = 0;
                if (sec.modulo)
                    stage = static_cast<int>(
                        rd.get(w.stageBits, where.c_str()));
                if (!rd.ok())
                    return fail(rd.err);
                if (sec.modulo && stage >= sec.stages)
                    return fail(format("stage %d of %d at %s", stage,
                                       sec.stages, where.c_str()));

                PlacedOp p;
                p.cycle =
                    sec.modulo ? stage * sec.ii + word : word;
                if (slot_idx < 0) {
                    if (!info.isBranch)
                        return fail(format(
                            "'%s' in the control slot at %s",
                            info.name, where.c_str()));
                    p.cluster = 0;
                    p.slot = -1;
                } else {
                    if (info.isBranch)
                        return fail(format(
                            "branch outside the control slot at %s",
                            where.c_str()));
                    p.cluster = slot_idx / fmt.slotsPerCluster;
                    p.slot = slot_idx % fmt.slotsPerCluster;
                }
                op.cluster = p.cluster;
                issued.emplace_back(op, p);
            }
        }
        if (issued.size() != num_ops)
            return fail(format(
                "section '%s': %zu ops present but header claims %u",
                sec.label.c_str(), issued.size(), num_ops));

        for (size_t k = 0; k < issued.size(); ++k) {
            uint32_t seq = rd.get(w.seqBits, "program-order table");
            if (!rd.ok())
                return fail(format("truncated binary in the "
                                   "program-order table of section "
                                   "'%s'",
                                   sec.label.c_str()));
            if (seq >= num_ops || seen[seq])
                return fail(format("section '%s': corrupt "
                                   "program-order table (index %u)",
                                   sec.label.c_str(), seq));
            seen[seq] = true;
            issued[k].first.id = static_cast<int>(seq);
            sec.ops[seq] = issued[k].first;
            sec.placed[seq] = issued[k].second;
        }

        uint64_t computed = isaOpsHash(sec.ops);
        if (computed != sec.opsHash)
            return fail(format(
                "section '%s': ops hash mismatch (stored "
                "0x%016llx, decoded 0x%016llx)",
                sec.label.c_str(),
                static_cast<unsigned long long>(sec.opsHash),
                static_cast<unsigned long long>(computed)));
        mod.sections.push_back(std::move(sec));
    }

    uint32_t trailer = rd.get(24, "trailer"); // 'E','N','D'.
    if (!rd.ok() || trailer != 0x454e44u)
        return fail("missing END trailer");
    // Only zero flush padding may remain (byte-identical re-encode).
    uint64_t left = rd.br.bitsLeft();
    if (left >= 16)
        return fail(format("%llu trailing bits after END",
                           static_cast<unsigned long long>(left)));
    while (rd.br.bitsLeft() > 0)
        if (rd.br.get(1))
            return fail("nonzero padding after END");

    out = std::move(mod);
    return true;
}

// ---------------------------------------------------------------
// Assembly parsing.
// ---------------------------------------------------------------

namespace
{

const std::unordered_map<std::string, Opcode> &
mnemonicTable()
{
    static const std::unordered_map<std::string, Opcode> table = [] {
        std::unordered_map<std::string, Opcode> t;
        for (uint32_t v = 0; v <= kMaxOpcode; ++v) {
            Opcode op = static_cast<Opcode>(v);
            t.emplace(opcodeInfo(op).name, op);
        }
        return t;
    }();
    return table;
}

/** Whitespace tokenizer that keeps "quoted strings" whole. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && std::isspace(
                                      static_cast<unsigned char>(
                                          line[i])))
            ++i;
        if (i >= line.size())
            break;
        if (line[i] == '"') {
            size_t end = line.find('"', i + 1);
            if (end == std::string::npos)
                end = line.size();
            tokens.push_back(line.substr(i, end + 1 - i));
            i = end + 1;
        } else {
            size_t end = i;
            while (end < line.size() &&
                   !std::isspace(
                       static_cast<unsigned char>(line[end])))
                ++end;
            tokens.push_back(line.substr(i, end - i));
            i = end;
        }
    }
    return tokens;
}

bool
parseLong(const std::string &s, long long &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 0);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

bool
parseU64Hex(const std::string &s, uint64_t &out)
{
    if (s.size() < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X'))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 16);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

std::string
unquote(const std::string &s)
{
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
        return s.substr(1, s.size() - 2);
    return s;
}

class AsmParser
{
  public:
    AsmParser(const std::string &text, IsaModule &out,
              const DatapathConfig *machine_override)
        : text_(text), mod_(out), override_(machine_override)
    {
    }

    bool
    run(std::string *error)
    {
        std::istringstream is(text_);
        std::string line;
        while (std::getline(is, line)) {
            ++lineNo_;
            std::vector<std::string> tokens = tokenize(line);
            if (tokens.empty() || tokens[0][0] == ';')
                continue;
            if (!handleLine(tokens))
                break;
        }
        if (err_.empty())
            finishSection();
        if (!err_.empty()) {
            if (error)
                *error = err_;
            return false;
        }
        if (!machine_) {
            if (error)
                *error = "missing .machine directive";
            return false;
        }
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        if (err_.empty())
            err_ = format("line %d: %s", lineNo_, msg.c_str());
        return false;
    }

    /** "key=value" accessor over a directive's tokens. */
    static bool
    keyValue(const std::string &token, const std::string &key,
             std::string &value)
    {
        if (token.size() <= key.size() + 1 ||
            token.compare(0, key.size(), key) != 0 ||
            token[key.size()] != '=')
            return false;
        value = token.substr(key.size() + 1);
        return true;
    }

    bool
    intDirectiveField(const std::string &token,
                      const std::string &key, int &out, bool &found)
    {
        std::string value;
        if (!keyValue(token, key, value))
            return false;
        long long v = 0;
        if (!parseLong(value, v) || v < 0 || v > 1 << 24) {
            fail(format("bad %s value '%s'", key.c_str(),
                        value.c_str()));
            return true;
        }
        out = static_cast<int>(v);
        found = true;
        return true;
    }

    bool
    handleLine(const std::vector<std::string> &tokens)
    {
        const std::string &head = tokens[0];
        if (head == ".module") {
            if (tokens.size() != 2)
                return fail(".module wants one name");
            mod_.name = unquote(tokens[1]);
            return true;
        }
        if (head == ".machine")
            return handleMachine(tokens);
        if (head == ".format")
            return handleFormat(tokens);
        if (head == ".section")
            return handleSection(tokens);
        if (head == ".w")
            return handleWord(tokens);
        if (head[0] == '.')
            return fail(format("unknown directive '%s'",
                               head.c_str()));
        return handleOp(tokens);
    }

    bool
    handleMachine(const std::vector<std::string> &tokens)
    {
        if (tokens.size() != 2)
            return fail(".machine wants one model name");
        mod_.machine = tokens[1];
        std::optional<DatapathConfig> cfg;
        if (override_) {
            cfg = *override_;
        } else {
            cfg = ModelRegistry::instance().find(mod_.machine);
            if (!cfg)
                return fail(format(
                    "unknown machine '%s' (registered models: %s)",
                    mod_.machine.c_str(),
                    ModelRegistry::instance().namesLine().c_str()));
        }
        machine_.emplace(*cfg);
        if (!haveFormat_)
            mod_.fmt = isaFormatFor(machine_->config());
        return true;
    }

    bool
    handleFormat(const std::vector<std::string> &tokens)
    {
        bool found = false;
        for (size_t i = 1; i < tokens.size() && err_.empty(); ++i) {
            if (intDirectiveField(tokens[i], "clusters",
                                  mod_.fmt.clusters, found) ||
                intDirectiveField(tokens[i], "slots",
                                  mod_.fmt.slotsPerCluster, found) ||
                intDirectiveField(tokens[i], "opcode_bits",
                                  mod_.fmt.opcodeBits, found) ||
                intDirectiveField(tokens[i], "reg_bits",
                                  mod_.fmt.archRegBits, found) ||
                intDirectiveField(tokens[i], "imm_bits",
                                  mod_.fmt.immBits, found) ||
                intDirectiveField(tokens[i], "cluster_bits",
                                  mod_.fmt.clusterBits, found))
                continue;
            return fail(format("unknown .format field '%s'",
                               tokens[i].c_str()));
        }
        haveFormat_ = true;
        return err_.empty();
    }

    bool
    handleSection(const std::vector<std::string> &tokens)
    {
        if (!finishSection())
            return false;
        if (tokens.size() < 2 || tokens[1][0] != '"')
            return fail(".section wants a quoted label");
        sec_ = IsaSection{};
        sec_.label = unquote(tokens[1]);
        bool found = false;
        int width1 = 0;
        for (size_t i = 2; i < tokens.size() && err_.empty(); ++i) {
            std::string value;
            if (keyValue(tokens[i], "kind", value)) {
                if (value == "modulo")
                    sec_.modulo = true;
                else if (value != "acyclic")
                    return fail(format("bad section kind '%s'",
                                       value.c_str()));
                continue;
            }
            if (keyValue(tokens[i], "opshash", value)) {
                if (!parseU64Hex(value, declHash_))
                    return fail(format("bad opshash '%s'",
                                       value.c_str()));
                haveHash_ = true;
                continue;
            }
            if (intDirectiveField(tokens[i], "width1", width1,
                                  found) ||
                intDirectiveField(tokens[i], "length", sec_.length,
                                  found) ||
                intDirectiveField(tokens[i], "ii", sec_.ii, found) ||
                intDirectiveField(tokens[i], "stages", sec_.stages,
                                  found) ||
                intDirectiveField(tokens[i], "maxlive", sec_.maxLive,
                                  found))
                continue;
            return fail(format("unknown .section field '%s'",
                               tokens[i].c_str()));
        }
        if (!err_.empty())
            return false;
        sec_.width1 = width1 != 0;
        if (!machine_)
            return fail(".section before .machine");
        if (sec_.modulo && (sec_.ii <= 0 || sec_.stages <= 0))
            return fail("modulo section wants ii=N and stages=N");
        if (sec_.words() <= 0)
            return fail("section has no words (length/ii missing)");
        inSection_ = true;
        curWord_ = -1;
        pend_.clear();
        slotUsed_.assign(static_cast<size_t>(sec_.words()) *
                             (mod_.fmt.totalSlots() + 1),
                         false);
        return true;
    }

    bool
    handleWord(const std::vector<std::string> &tokens)
    {
        if (!inSection_)
            return fail(".w outside a section");
        long long w = 0;
        if (tokens.size() != 2 || !parseLong(tokens[1], w) || w < 0)
            return fail(".w wants a word index");
        if (w >= sec_.words())
            return fail(format("word %lld out of range (section "
                               "'%s' has %d words)",
                               w, sec_.label.c_str(), sec_.words()));
        curWord_ = static_cast<int>(w);
        return true;
    }

    bool
    parseOperand(const std::string &text, Operand &out,
                 const std::string &where)
    {
        if (text == "_") {
            out = Operand::none();
            return true;
        }
        long long v = 0;
        if (text.size() > 1 && text[0] == 'v') {
            if (!parseLong(text.substr(1), v) || v < 0 ||
                v >= static_cast<long long>(kNoVreg))
                return fail(format("%s: bad register '%s'",
                                   where.c_str(), text.c_str()));
            out = Operand::ofReg(static_cast<Vreg>(v));
            return true;
        }
        if (text.size() > 1 && text[0] == '#') {
            if (!parseLong(text.substr(1), v))
                return fail(format("%s: bad immediate '%s'",
                                   where.c_str(), text.c_str()));
            if (v < -32768 || v > 65535)
                return fail(format(
                    "%s: immediate %lld exceeds the %d-bit field",
                    where.c_str(), v, mod_.fmt.immBits));
            out = Operand::ofImm(
                canonicalImm16(static_cast<int32_t>(v)));
            return true;
        }
        return fail(format("%s: bad operand '%s' (want vN, #N or _)",
                           where.c_str(), text.c_str()));
    }

    bool
    handleOp(const std::vector<std::string> &tokens)
    {
        if (!inSection_)
            return fail("operation outside a section");
        if (curWord_ < 0)
            return fail("operation before any .w directive");
        std::string loc = tokens[0];
        if (loc.empty() || loc.back() != ':')
            return fail(format("bad slot location '%s'",
                               loc.c_str()));
        loc.pop_back();

        int cluster = 0;
        int slot = -1;
        if (loc != "ctrl") {
            size_t dot = loc.find('.');
            long long c = 0, s = 0;
            if (loc.size() < 4 || loc[0] != 'c' ||
                dot == std::string::npos ||
                dot + 2 > loc.size() || loc[dot + 1] != 's' ||
                !parseLong(loc.substr(1, dot - 1), c) ||
                !parseLong(loc.substr(dot + 2), s))
                return fail(format(
                    "bad slot location '%s' (want cN.sM or ctrl)",
                    loc.c_str()));
            if (c < 0 || c >= mod_.fmt.clusters || s < 0 ||
                s >= mod_.fmt.slotsPerCluster)
                return fail(format(
                    "word %d: slot c%lld.s%lld outside the %dx%d "
                    "word",
                    curWord_, c, s, mod_.fmt.clusters,
                    mod_.fmt.slotsPerCluster));
            cluster = static_cast<int>(c);
            slot = static_cast<int>(s);
        }
        std::string where = format(
            "word %d, %s", curWord_,
            slot < 0 ? "ctrl" : format("c%d.s%d", cluster, slot)
                                    .c_str());

        if (tokens.size() < 2)
            return fail(format("%s: missing mnemonic",
                               where.c_str()));
        auto mn = mnemonicTable().find(tokens[1]);
        if (mn == mnemonicTable().end())
            return fail(format("unknown mnemonic '%s'",
                               tokens[1].c_str()));

        Operation op;
        op.op = mn->second;
        op.cluster = cluster;
        const OpcodeInfo &info = op.info();

        std::vector<std::string> positional;
        int stage = 0;
        bool haveStage = false;
        long long seq = -1;
        for (size_t i = 2; i < tokens.size(); ++i) {
            std::string t = tokens[i];
            if (!t.empty() && t.back() == ',')
                t.pop_back();
            if (t.empty())
                continue;
            long long v = 0;
            if (t.compare(0, 2, "b=") == 0) {
                if (!parseLong(t.substr(2), v) || v < 0)
                    return fail(format("%s: bad buffer '%s'",
                                       where.c_str(), t.c_str()));
                op.buffer = static_cast<int>(v);
            } else if (t.compare(0, 3, "->c") == 0) {
                if (!parseLong(t.substr(3), v) || v < 0 ||
                    v >= mod_.fmt.clusters)
                    return fail(format(
                        "%s: transfer target '%s' outside %d "
                        "clusters",
                        where.c_str(), t.c_str(),
                        mod_.fmt.clusters));
                op.dstCluster = static_cast<int>(v);
            } else if (t.compare(0, 2, "s=") == 0) {
                if (!parseLong(t.substr(2), v) || v < 0)
                    return fail(format("%s: bad stage '%s'",
                                       where.c_str(), t.c_str()));
                stage = static_cast<int>(v);
                haveStage = true;
            } else if (t[0] == '@') {
                if (!parseLong(t.substr(1), seq) || seq < 0)
                    return fail(format("%s: bad program index '%s'",
                                       where.c_str(), t.c_str()));
            } else if (t[0] == '?') {
                std::string p = t.substr(1);
                op.predSense = true;
                if (!p.empty() && p[0] == '!') {
                    op.predSense = false;
                    p = p.substr(1);
                }
                if (!parseOperand(p, op.pred, where) ||
                    op.pred.isNone())
                    return err_.empty()
                               ? fail(format("%s: bad predicate",
                                             where.c_str()))
                               : false;
            } else {
                positional.push_back(t);
            }
        }

        int expected = (info.hasDst ? 1 : 0) + info.numSrcs;
        if (static_cast<int>(positional.size()) != expected)
            return fail(format("%s: '%s' wants %d operands, got %zu",
                               where.c_str(), info.name, expected,
                               positional.size()));
        size_t pi = 0;
        if (info.hasDst) {
            Operand d;
            if (!parseOperand(positional[pi++], d, where))
                return false;
            if (!d.isReg())
                return fail(format(
                    "%s: '%s' destination must be a register",
                    where.c_str(), info.name));
            op.dst = d.reg;
        }
        for (int i = 0; i < info.numSrcs; ++i)
            if (!parseOperand(positional[pi++],
                              op.src[static_cast<size_t>(i)], where))
                return false;
        if (info.isMemory && op.buffer < 0)
            return fail(format("%s: '%s' wants b=<buffer>",
                               where.c_str(), info.name));

        if (sec_.modulo) {
            if (stage >= sec_.stages)
                return fail(format("%s: stage %d of %d stages",
                                   where.c_str(), stage,
                                   sec_.stages));
        } else if (haveStage) {
            return fail(format("%s: s= in an acyclic section",
                               where.c_str()));
        }
        if (seq < 0)
            return fail(format("%s: missing @<program index>",
                               where.c_str()));

        if (slot < 0) {
            if (!info.isBranch)
                return fail(format(
                    "%s: '%s' cannot issue on the control slot",
                    where.c_str(), info.name));
        } else {
            if (info.isBranch)
                return fail(format(
                    "%s: branches issue on the control slot, not "
                    "c%d.s%d",
                    where.c_str(), cluster, slot));
            if (!machine_->canExecute(op))
                return fail(format(
                    "%s: machine '%s' does not implement '%s'",
                    where.c_str(), mod_.machine.c_str(), info.name));
            if (!machine_->slotAllows(slot, op))
                return fail(format(
                    "%s: slot c%d.s%d cannot execute '%s' on %s",
                    where.c_str(), cluster, slot, info.name,
                    mod_.machine.c_str()));
        }

        int slot_idx =
            slot < 0 ? mod_.fmt.totalSlots()
                     : cluster * mod_.fmt.slotsPerCluster + slot;
        size_t used = static_cast<size_t>(curWord_) *
                          (mod_.fmt.totalSlots() + 1) +
                      static_cast<size_t>(slot_idx);
        if (slotUsed_[used])
            return fail(format("%s: slot already occupied",
                               where.c_str()));
        slotUsed_[used] = true;

        PendingOp po;
        po.op = op;
        po.placed.cycle = sec_.modulo
                              ? stage * sec_.ii + curWord_
                              : curWord_;
        po.placed.cluster = cluster;
        po.placed.slot = slot;
        po.seq = static_cast<long long>(seq);
        po.line = lineNo_;
        pend_.push_back(std::move(po));
        return true;
    }

    bool
    finishSection()
    {
        if (!inSection_)
            return true;
        inSection_ = false;
        size_t n = pend_.size();
        sec_.ops.assign(n, Operation{});
        sec_.placed.assign(n, PlacedOp{});
        std::vector<bool> seen(n, false);
        for (const PendingOp &po : pend_) {
            if (po.seq >= static_cast<long long>(n) ||
                seen[static_cast<size_t>(po.seq)]) {
                err_ = format(
                    "line %d: program index @%lld is not a "
                    "permutation of 0..%zu in section '%s'",
                    po.line, po.seq, n == 0 ? 0 : n - 1,
                    sec_.label.c_str());
                return false;
            }
            size_t s = static_cast<size_t>(po.seq);
            seen[s] = true;
            sec_.ops[s] = po.op;
            sec_.ops[s].id = static_cast<int>(s);
            sec_.placed[s] = po.placed;
        }
        sec_.opsHash = isaOpsHash(sec_.ops);
        if (haveHash_ && declHash_ != sec_.opsHash) {
            err_ = format(
                "section '%s': opshash mismatch (declared "
                "0x%016llx, ops hash 0x%016llx)",
                sec_.label.c_str(),
                static_cast<unsigned long long>(declHash_),
                static_cast<unsigned long long>(sec_.opsHash));
            return false;
        }
        haveHash_ = false;
        declHash_ = 0;
        mod_.sections.push_back(std::move(sec_));
        return true;
    }

    struct PendingOp
    {
        Operation op;
        PlacedOp placed;
        long long seq = -1;
        int line = 0;
    };

    const std::string &text_;
    IsaModule &mod_;
    const DatapathConfig *override_;
    std::string err_;
    int lineNo_ = 0;
    std::optional<MachineModel> machine_;
    bool haveFormat_ = false;

    bool inSection_ = false;
    IsaSection sec_;
    std::vector<PendingOp> pend_;
    std::vector<bool> slotUsed_;
    int curWord_ = -1;
    bool haveHash_ = false;
    uint64_t declHash_ = 0;
};

} // anonymous namespace

bool
parseAsm(const std::string &text, IsaModule &out, std::string *error,
         const DatapathConfig *machine_override)
{
    IsaModule mod;
    AsmParser parser(text, mod, machine_override);
    if (!parser.run(error))
        return false;
    out = std::move(mod);
    return true;
}

} // namespace vvsp

#include "rl/checkpoint.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "rl/q_table.hh"
#include "rl/value_agent.hh"

namespace sibyl::rl
{

namespace
{

constexpr char kMagic[8] = {'S', 'B', 'Y', 'L', 'C', 'K', 'P', 'T'};

template <typename T>
void
writePod(std::ostream &out, const T &v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
readPod(std::istream &in, T &v)
{
    in.read(reinterpret_cast<char *>(&v), sizeof(T));
    return static_cast<bool>(in);
}

/** FNV-1a over the serialized payload: cheap, dependency-free, and
 *  enough to catch the truncation/bit-flip corruption class (this is
 *  an integrity check against accidental damage, not an authenticator). */
std::uint64_t
payloadChecksum(const std::string &payload)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : payload) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

void
writeFloats(std::ostream &out, const std::vector<float> &v)
{
    writePod(out, static_cast<std::uint64_t>(v.size()));
    out.write(reinterpret_cast<const char *>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
}

bool
readFloats(std::istream &in, std::vector<float> &v)
{
    std::uint64_t n = 0;
    if (!readPod(in, n) || n > (1ull << 30))
        return false;
    v.resize(n);
    in.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    return static_cast<bool>(in);
}

FamilyTag
familyOf(const Agent &agent)
{
    if (const auto *v = dynamic_cast<const ValueAgent *>(&agent))
        return v->head().family();
    return FamilyTag::QTable;
}

} // namespace

void
saveCheckpoint(const Agent &agent, std::ostream &out)
{
    // Serialize the family payload to a buffer first so the header can
    // carry its exact length and checksum (the v2 corruption guard).
    std::ostringstream body(std::ios::binary);
    if (const auto *v = dynamic_cast<const ValueAgent *>(&agent)) {
        writeFloats(body, v->trainingNetwork().saveParams());
    } else {
        const auto &q = dynamic_cast<const QTableAgent &>(agent);
        writePod(body, static_cast<std::uint64_t>(q.table().size()));
        for (const auto &[key, row] : q.table()) {
            writePod(body, key);
            for (double v : row)
                writePod(body, v);
        }
    }
    const std::string payload = body.str();

    out.write(kMagic, sizeof(kMagic));
    writePod(out, kCheckpointVersion);
    const AgentConfig &cfg = agent.config();
    writePod(out, static_cast<std::uint32_t>(familyOf(agent)));
    writePod(out, cfg.stateDim);
    writePod(out, cfg.numActions);
    writePod(out, static_cast<std::uint64_t>(payload.size()));
    writePod(out, payloadChecksum(payload));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
}

std::string
loadCheckpoint(Agent &agent, std::istream &in)
{
    char magic[8];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return "not a Sibyl checkpoint (bad magic)";

    std::uint32_t version = 0;
    std::uint32_t family = 0;
    std::uint32_t stateDim = 0;
    std::uint32_t numActions = 0;
    if (!readPod(in, version) || !readPod(in, family) ||
        !readPod(in, stateDim) || !readPod(in, numActions)) {
        return "truncated checkpoint header";
    }
    if (version != kCheckpointVersion)
        return "unsupported checkpoint version " + std::to_string(version);
    if (family != static_cast<std::uint32_t>(familyOf(agent)))
        return "checkpoint is for a different agent family";
    const AgentConfig &cfg = agent.config();
    if (stateDim != cfg.stateDim || numActions != cfg.numActions) {
        std::ostringstream err;
        err << "dimension mismatch: checkpoint " << stateDim << "x"
            << numActions << ", agent " << cfg.stateDim << "x"
            << cfg.numActions;
        return err.str();
    }

    std::uint64_t payloadSize = 0;
    std::uint64_t checksum = 0;
    if (!readPod(in, payloadSize) || !readPod(in, checksum))
        return "truncated checkpoint header";
    if (payloadSize > (1ull << 32))
        return "implausible payload size (corrupt header)";
    // Chunked read: a corrupted size field must not trigger a giant
    // upfront allocation — memory use is bounded by the bytes that
    // actually exist, and a short stream is a clean truncation error.
    std::string payload;
    char chunk[65536];
    for (std::uint64_t left = payloadSize; left > 0;) {
        const std::streamsize want = static_cast<std::streamsize>(
            std::min<std::uint64_t>(left, sizeof(chunk)));
        in.read(chunk, want);
        const std::streamsize got = in.gcount();
        payload.append(chunk, static_cast<std::size_t>(got));
        left -= static_cast<std::uint64_t>(got);
        if (got < want)
            return "truncated checkpoint payload";
    }
    if (payloadChecksum(payload) != checksum)
        return "checkpoint payload checksum mismatch (corrupted)";

    // Past this point the payload is byte-exact as written; every
    // family still parses into temporaries before touching the agent,
    // so any residual mismatch (e.g. a different hidden-layer topology
    // with the same state/action dims) leaves the agent untouched.
    std::istringstream body(payload, std::ios::binary);
    if (auto *v = dynamic_cast<ValueAgent *>(&agent)) {
        std::vector<float> params;
        if (!readFloats(body, params))
            return "truncated network parameters";
        if (params.size() != v->trainingNetwork().saveParams().size())
            return "parameter count mismatch (different topology?)";
        v->trainingNetwork().loadParams(params);
        v->syncWeights();
    } else {
        auto &q = dynamic_cast<QTableAgent &>(agent);
        std::uint64_t entries = 0;
        if (!readPod(body, entries) || entries > (1ull << 32))
            return "truncated table header";
        std::unordered_map<std::uint64_t, std::vector<double>> table;
        table.reserve(entries);
        for (std::uint64_t i = 0; i < entries; i++) {
            std::uint64_t key = 0;
            if (!readPod(body, key))
                return "truncated table entry";
            std::vector<double> row(numActions);
            for (auto &v : row)
                if (!readPod(body, v))
                    return "truncated table row";
            table.emplace(key, std::move(row));
        }
        q.restoreTable(std::move(table));
    }
    return std::string();
}

void
saveCheckpointFile(const Agent &agent, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    saveCheckpoint(agent, out);
}

std::string
loadCheckpointFile(Agent &agent, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot open " + path;
    return loadCheckpoint(agent, in);
}

} // namespace sibyl::rl

/**
 * @file
 * Experience replay buffer (§6.2.1).
 *
 * Sibyl stores <state, action, reward, next-state> transitions in a
 * bounded buffer in host DRAM, deduplicating identical experiences to
 * minimize its footprint, and trains on uniformly sampled batches
 * ("experience replay", Mnih et al. 2015).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "ml/matrix.hh"
#include "rl/sum_tree.hh"

namespace sibyl::rl
{

/**
 * Streaming Murmur64A-style word hasher shared by the replay-dedup
 * and batch-fold content hashes. Each 8-byte word is avalanched
 * (mul, xorshift, mul) before combining: a plain word-wise FNV is
 * NOT safe on this input class — its multiply spreads a flipped bit
 * b only to bits [b, b+8], so observations differing solely in float
 * exponent bits (the top of each word — exactly how binned features
 * differ) collide at observable rates. One definition, so collision
 * behavior can never drift between the two consumers.
 */
struct WordHasher
{
    static constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;
    std::uint64_t h = 1469598103934665603ULL;

    void
    mixWord(std::uint64_t w)
    {
        w *= kMul;
        w ^= w >> 47;
        w *= kMul;
        h ^= w;
        h *= kMul;
    }

    void
    mixBytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        std::size_t i = 0;
        for (; i + 8 <= len; i += 8) {
            std::uint64_t w;
            __builtin_memcpy(&w, p + i, 8);
            mixWord(w);
        }
        if (i < len) {
            std::uint64_t w = 0;
            __builtin_memcpy(&w, p + i, len - i);
            mixWord(w);
        }
    }

    std::uint64_t
    finish() const
    {
        std::uint64_t r = h ^ (h >> 47);
        r *= kMul;
        return r ^ (r >> 47);
    }
};

/** One transition observed by the agent. */
struct Experience
{
    ml::Vector state;
    std::uint32_t action = 0;
    float reward = 0.0f;
    ml::Vector nextState;
};

/**
 * Bounded FIFO replay buffer with optional content deduplication and
 * uniform random sampling.
 */
class ReplayBuffer
{
  public:
    /**
     * @param capacity Max entries (e_EB in Table 2; paper default 1000).
     * @param dedup    Skip insertion of transitions identical to one
     *                 already stored (paper §6.2.1).
     */
    explicit ReplayBuffer(std::size_t capacity, bool dedup = true);

    /**
     * Insert a transition; evicts the oldest entry if full. Returns
     * false if the entry was dropped as a duplicate. The transition is
     * copied straight into the ring slot (whose vectors keep their
     * capacity), and the dedup index recycles its evicted hash node
     * instead of erase+insert, so once the ring has filled and the
     * slot vectors have their steady sizes, an insert performs zero
     * heap allocations.
     */
    bool add(const ml::Vector &state, std::uint32_t action, float reward,
             const ml::Vector &nextState);

    /** Uniformly sample @p n entry indices (with replacement) into
     *  @p out, reusing its capacity (empty for an empty buffer). */
    void sampleIndices(std::size_t n, Pcg32 &rng,
                       std::vector<std::size_t> &out) const;

    /**
     * Prioritized sampling (Schaul et al., 2016): entry i is drawn with
     * probability proportional to priority_i^alpha. New entries start
     * at the current max priority so they are replayed at least once.
     *
     * Draws are O(log N) inverse-CDF descents of a sum tree keyed by
     * p_i^alpha; the tree is updated incrementally by add()/setPriority()
     * and only rebuilt when @p alpha changes between calls.
     *
     * @param n     Samples to draw (with replacement).
     * @param alpha Prioritization exponent (0 = uniform).
     * @param out   Receives the draws, reusing its capacity.
     */
    void samplePrioritizedIndices(std::size_t n, Pcg32 &rng, double alpha,
                                  std::vector<std::size_t> &out) const;

    /** Priority of entry @p i (default: max priority at insert time). */
    float priority(std::size_t i) const { return priorities_.at(i); }

    /** Update entry @p i's priority (e.g., to its latest |TD error|). */
    void setPriority(std::size_t i, float p);

    /**
     * Importance-sampling weights for a sampled batch under
     * prioritized sampling, normalized so the largest weight in the
     * buffer is 1: w_i = (N * P(i))^-beta / max_j w_j, evaluated
     * against the distribution the batch was *sampled* from (i.e.
     * before any setPriority() refreshes — the Schaul et al.
     * formulation). N and the total mass cancel, so each weight is one
     * pow of P(i) / P_min, with P_min from the sum tree's cached root
     * aggregate. Fills @p out (one weight per index), reusing its
     * capacity.
     */
    void importanceWeights(const std::vector<std::size_t> &indices,
                           double alpha, double beta,
                           std::vector<double> &out) const;

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool full() const { return entries_.size() == capacity_; }

    /** Ring slot filled by the most recent accepted add() (undefined
     *  before the first accept). Agents use it to invalidate
     *  per-entry caches keyed by slot index. */
    std::size_t lastAddIndex() const { return lastAdd_; }

    /** Total add() calls accepted since construction/clear. */
    std::uint64_t totalAdded() const { return totalAdded_; }
    /** add() calls rejected as duplicates. */
    std::uint64_t duplicatesDropped() const { return duplicates_; }

    void clear();

    const Experience &operator[](std::size_t i) const
    {
        return entries_[i];
    }

  private:
    /** Content hash of a transition (Murmur64A-style word rounds — see
     *  the definition for why a word-wise FNV is NOT safe here). */
    static std::uint64_t hashTransition(const ml::Vector &state,
                                        std::uint32_t action, float reward,
                                        const ml::Vector &nextState);

    /** p^alpha + epsilon, the mass the samplers weight entries by. */
    static double transformedPriority(float p, double alpha);

    /** (Re)key the sum tree to @p alpha if it isn't already. */
    void ensureTree(double alpha) const;

    std::size_t capacity_;
    bool dedup_;
    std::vector<Experience> entries_; // ring once full
    std::size_t next_ = 0;            // ring cursor
    std::size_t lastAdd_ = 0;         // slot of last accepted add
    std::vector<std::uint64_t> hashes_;
    std::vector<float> priorities_;
    float maxPriority_ = 1.0f;

    // Sum tree over p^alpha for the alpha last used; lazily rebuilt on
    // alpha changes, incrementally maintained by add()/setPriority().
    mutable SumTree tree_;
    mutable std::optional<double> treeAlpha_;
    std::unordered_map<std::uint64_t, std::uint32_t> hashCount_;
    std::uint64_t totalAdded_ = 0;
    std::uint64_t duplicates_ = 0;
};

} // namespace sibyl::rl

#include "rl/replay_buffer.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace sibyl::rl
{

ReplayBuffer::ReplayBuffer(std::size_t capacity, bool dedup)
    : capacity_(capacity ? capacity : 1), dedup_(dedup), tree_(capacity_)
{
    entries_.reserve(capacity_);
    hashes_.reserve(capacity_);
}

double
ReplayBuffer::transformedPriority(float p, double alpha)
{
    return std::pow(static_cast<double>(p), alpha) + 1e-8;
}

void
ReplayBuffer::ensureTree(double alpha) const
{
    if (treeAlpha_ && *treeAlpha_ == alpha)
        return;
    tree_.clear();
    for (std::size_t i = 0; i < entries_.size(); i++)
        tree_.set(i, transformedPriority(priorities_[i], alpha));
    treeAlpha_ = alpha;
}

std::uint64_t
ReplayBuffer::hashTransition(const ml::Vector &state, std::uint32_t action,
                             float reward, const ml::Vector &nextState)
{
    // Word-at-a-time content hash (see WordHasher in the header for
    // the avalanche rationale). The byte-serial FNV this replaces was
    // a ~170-cycle multiply dependency chain on every request (the
    // hash guards the dedup check in observe()); consuming 8 bytes
    // per round cuts that several-fold with the same
    // equality-preserving semantics.
    WordHasher hasher;
    hasher.mixBytes(state.data(), state.size() * sizeof(float));
    hasher.mixWord((static_cast<std::uint64_t>(action) << 32) ^
                   std::bit_cast<std::uint32_t>(reward));
    hasher.mixBytes(nextState.data(), nextState.size() * sizeof(float));
    return hasher.finish();
}

bool
ReplayBuffer::add(const ml::Vector &state, std::uint32_t action,
                  float reward, const ml::Vector &nextState)
{
    const std::uint64_t h = hashTransition(state, action, reward, nextState);
    if (dedup_) {
        auto it = hashCount_.find(h);
        if (it != hashCount_.end() && it->second > 0) {
            duplicates_++;
            return false;
        }
    }

    std::size_t idx;
    bool recycled = false;
    if (entries_.size() < capacity_) {
        idx = entries_.size();
        entries_.emplace_back();
        hashes_.push_back(h);
        priorities_.push_back(maxPriority_);
    } else {
        // Overwrite the oldest entry (ring). The evicted hash's index
        // node is rekeyed in place (extract/insert) rather than
        // erase+insert, so the steady-state path frees and allocates
        // nothing.
        idx = next_;
        std::uint64_t old = hashes_[next_];
        auto it = hashCount_.find(old);
        if (it != hashCount_.end() && --it->second == 0) {
            auto node = hashCount_.extract(it);
            node.key() = h;
            node.mapped() = 0;
            recycled = hashCount_.insert(std::move(node)).inserted;
        }
        hashes_[next_] = h;
        priorities_[next_] = maxPriority_;
        next_ = (next_ + 1) % capacity_;
    }
    // assign() reuses the slot vectors' capacity — this is the
    // zero-allocation path once the ring has warmed up.
    Experience &slot = entries_[idx];
    slot.state.assign(state.begin(), state.end());
    slot.action = action;
    slot.reward = reward;
    slot.nextState.assign(nextState.begin(), nextState.end());
    lastAdd_ = idx;
    if (treeAlpha_)
        tree_.set(idx, transformedPriority(maxPriority_, *treeAlpha_));
    if (!recycled)
        hashCount_[h]++;
    else
        hashCount_.find(h)->second++;
    totalAdded_++;
    return true;
}

void
ReplayBuffer::sampleIndices(std::size_t n, Pcg32 &rng,
                            std::vector<std::size_t> &out) const
{
    out.clear();
    if (entries_.empty())
        return;
    out.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        out.push_back(static_cast<std::size_t>(rng.nextBounded(
            static_cast<std::uint32_t>(entries_.size()))));
    }
}

void
ReplayBuffer::samplePrioritizedIndices(std::size_t n, Pcg32 &rng,
                                       double alpha,
                                       std::vector<std::size_t> &out) const
{
    out.clear();
    if (entries_.empty())
        return;

    ensureTree(alpha);
    const double total = tree_.total();
    const std::size_t last = entries_.size() - 1;
    out.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        const double u = rng.nextDouble() * total;
        // Clamp for the partially filled buffer: rounding can walk the
        // descent into the zero-mass unset tail.
        out.push_back(std::min(tree_.sample(u), last));
    }
}

void
ReplayBuffer::setPriority(std::size_t i, float p)
{
    p = std::max(p, 1e-6f);
    priorities_.at(i) = p;
    maxPriority_ = std::max(maxPriority_, p);
    if (treeAlpha_)
        tree_.set(i, transformedPriority(p, *treeAlpha_));
}

void
ReplayBuffer::importanceWeights(const std::vector<std::size_t> &indices,
                                double alpha, double beta,
                                std::vector<double> &out) const
{
    out.assign(indices.size(), 1.0);
    if (entries_.empty())
        return;
    ensureTree(alpha);
    const double minProb = tree_.minValue();
    for (std::size_t k = 0; k < indices.size(); k++) {
        // w_i / w_max = (P(i)/P_min)^-beta; N and the total mass cancel.
        out[k] = std::pow(tree_.value(indices[k]) / minProb, -beta);
    }
}

void
ReplayBuffer::clear()
{
    entries_.clear();
    hashes_.clear();
    priorities_.clear();
    maxPriority_ = 1.0f;
    tree_.clear();
    treeAlpha_.reset();
    hashCount_.clear();
    next_ = 0;
    lastAdd_ = 0;
    totalAdded_ = 0;
    duplicates_ = 0;
}

} // namespace sibyl::rl

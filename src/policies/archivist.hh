/**
 * @file
 * Archivist (Ren et al. [59]) — supervised-learning baseline.
 *
 * A neural-network classifier predicts the target device for each
 * request. Training happens at epoch boundaries on labels observed
 * during the previous epoch (a page was "hot" if accessed at least the
 * threshold number of times in that epoch); within an epoch the
 * classifier is frozen, and Archivist performs no promotions or
 * epoch-internal adjustments — the behaviour §8.6 observes.
 *
 * Crucially — and unlike Sibyl — the classifier receives *no*
 * system-level feedback (latency, evictions): it is a pure
 * workload-pattern predictor.
 */

#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "ml/network.hh"
#include "ml/optimizer.hh"
#include "policies/policy.hh"

namespace sibyl::policies
{

/** Tunables of the Archivist baseline. */
struct ArchivistConfig
{
    std::size_t epochLength = 2000;     ///< requests per epoch (>= 1)
    std::uint64_t hotThreshold = 2;     ///< epoch accesses to label hot
    std::uint32_t hiddenNeurons = 16;
    std::uint32_t trainPasses = 2;      ///< passes over the epoch samples
    double learningRate = 1e-2;
    std::uint64_t seed = 0xA2C;
};

/** The Archivist policy. */
class ArchivistPolicy : public PlacementPolicy
{
  public:
    /** @throws std::invalid_argument if epochLength is 0. */
    explicit ArchivistPolicy(const ArchivistConfig &cfg = ArchivistConfig());

    std::string name() const override { return "Archivist"; }

    DeviceId selectPlacement(const hss::HybridSystem &sys,
                             const trace::Request &req,
                             std::size_t reqIndex) override;

    void reset() override;

    /** The classifier (for checkpoint digests in tests). */
    const ml::Network &network() const { return *net_; }

  private:
    static constexpr std::size_t kFeatures = 4;

    /** Fresh classifier and optimizer, seeded from the config. */
    void buildClassifier();

    /** Append the request's features (size, type, access count, access
     *  interval) to the epoch's feature buffer. */
    void appendFeatures(const hss::HybridSystem &sys,
                        const trace::Request &req);

    /** Train the classifier on the recorded epoch and clear it. */
    void rotateEpoch();

    ArchivistConfig cfg_;
    std::unique_ptr<ml::Network> net_;
    ml::Adam opt_;
    bool trained_ = false;

    // The epoch's requests: kFeatures floats each, and their pages.
    std::vector<float> epochFeatures_;
    std::vector<PageId> epochPages_;
    std::unordered_map<PageId, std::uint64_t> epochCount_;

    // Reused per-sample buffers.
    ml::Vector input_;
    ml::Vector gradOut_;
    std::vector<float> labels_;
};

} // namespace sibyl::policies

#include "policies/archivist.hh"

#include <cmath>
#include <stdexcept>

#include "ml/loss.hh"

namespace sibyl::policies
{

ArchivistPolicy::ArchivistPolicy(const ArchivistConfig &cfg)
    : cfg_(cfg), opt_(cfg.learningRate)
{
    // A zero epoch length would reach a modulo by zero in
    // selectPlacement() and kill the whole process; reject it here,
    // where the runner records it as one failed run.
    if (cfg_.epochLength == 0)
        throw std::invalid_argument(
            "Archivist: epochLength must be >= 1 (training epoch length)");
    epochFeatures_.reserve(cfg_.epochLength * kFeatures);
    epochPages_.reserve(cfg_.epochLength);
    buildClassifier();
}

void
ArchivistPolicy::buildClassifier()
{
    Pcg32 initRng(cfg_.seed, 0xA2C41);
    const std::vector<ml::LayerSpec> layers = {
        {cfg_.hiddenNeurons, ml::Activation::ReLU},
        {cfg_.hiddenNeurons, ml::Activation::ReLU},
        {1, ml::Activation::Identity}, // logit
    };
    net_ = std::make_unique<ml::Network>(kFeatures, layers, initRng);
    opt_ = ml::Adam(cfg_.learningRate);
}

void
ArchivistPolicy::appendFeatures(const hss::HybridSystem &sys,
                                const trace::Request &req)
{
    auto logNorm = [](double v, double scale) {
        return static_cast<float>(std::log2(v + 1.0) / scale);
    };
    epochFeatures_.insert(
        epochFeatures_.end(),
        {
            logNorm(req.sizePages, 7.0),                 // up to 128 pages
            req.op == OpType::Write ? 1.0f : 0.0f,       // type
            logNorm(static_cast<double>(sys.accessCount(req.page)), 16.0),
            logNorm(static_cast<double>(sys.accessInterval(req.page)), 24.0),
        });
}

DeviceId
ArchivistPolicy::selectPlacement(const hss::HybridSystem &sys,
                                 const trace::Request &req,
                                 std::size_t reqIndex)
{
    const DeviceId fast = 0;
    const DeviceId slow = sys.numDevices() - 1;

    if (reqIndex != 0 && reqIndex % cfg_.epochLength == 0)
        rotateEpoch();

    appendFeatures(sys, req);
    epochPages_.push_back(req.page);
    epochCount_[req.page]++;

    if (!trained_)
        return slow; // no classifier yet: be conservative

    input_.assign(epochFeatures_.end() - kFeatures, epochFeatures_.end());
    const ml::Vector &out = net_->forward(input_);
    return out[0] > 0.0f ? fast : slow; // logit > 0 <=> p(hot) > 0.5
}

void
ArchivistPolicy::rotateEpoch()
{
    if (epochPages_.empty())
        return;
    // Label each recorded request by whether its page turned out hot
    // during the epoch, then fit the classifier.
    labels_.clear();
    for (PageId page : epochPages_)
        labels_.push_back(epochCount_.at(page) >= cfg_.hotThreshold ? 1.0f
                                                                    : 0.0f);
    gradOut_.assign(1, 0.0f);
    for (std::uint32_t pass = 0; pass < cfg_.trainPasses; pass++) {
        for (std::size_t s = 0; s < epochPages_.size(); s++) {
            const float *f = epochFeatures_.data() + s * kFeatures;
            input_.assign(f, f + kFeatures);
            const ml::Vector &out = net_->forward(input_);
            ml::binaryCrossEntropy(out[0], labels_[s], gradOut_[0]);
            net_->backward(gradOut_);
            opt_.step(*net_, 1);
        }
    }
    trained_ = true;
    epochFeatures_.clear();
    epochPages_.clear();
    epochCount_.clear();
}

void
ArchivistPolicy::reset()
{
    epochFeatures_.clear();
    epochPages_.clear();
    epochCount_.clear();
    trained_ = false;
    buildClassifier();
}

} // namespace sibyl::policies

#include "ml/network.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace sibyl::ml
{

Network::Network(std::size_t inputSize, const std::vector<LayerSpec> &layers,
                 Pcg32 &rng)
    : inputSize_(inputSize)
{
    if (layers.empty())
        throw std::invalid_argument("Network: at least one layer required");
    std::size_t prev = inputSize;
    for (const auto &spec : layers) {
        layers_.emplace_back(prev, spec.size, spec.act);
        layers_.back().initWeights(rng);
        prev = spec.size;
    }
    acts_.resize(layers_.size());
    actsM_.resize(layers_.size());

    std::size_t maxWidth = 0;
    for (const auto &l : layers_)
        maxWidth = std::max(maxWidth, l.outSize());
    rowBufA_.resize(maxWidth);
    rowBufB_.resize(maxWidth);
}

const Vector &
Network::forward(const Vector &in)
{
    assert(in.size() == inputSize_);
    const Vector *cur = &in;
    for (std::size_t i = 0; i < layers_.size(); i++) {
        layers_[i].forward(*cur, acts_[i]);
        cur = &acts_[i];
    }
    return acts_.back();
}

const float *
Network::inferRow(const float *in)
{
    const float *cur = in;
    float *next = rowBufA_.data();
    float *other = rowBufB_.data();
    for (auto &layer : layers_) {
        layer.inferRow(cur, next);
        cur = next;
        std::swap(next, other);
    }
    return cur;
}

const float *
Network::inferRow(const Vector &in)
{
    assert(in.size() == inputSize_);
    return inferRow(in.data());
}

void
Network::backward(const Vector &gradOut)
{
    assert(gradOut.size() == outputSize());
    gradScratchA_.assign(gradOut.begin(), gradOut.end());
    for (std::size_t i = layers_.size(); i-- > 0;) {
        layers_[i].backward(gradScratchA_, gradScratchB_);
        gradScratchA_.swap(gradScratchB_);
    }
}

const Matrix &
Network::forward(const Matrix &in)
{
    assert(in.cols() == inputSize_);
    const Matrix *cur = &in;
    for (std::size_t i = 0; i < layers_.size(); i++) {
        layers_[i].forward(*cur, actsM_[i]);
        cur = &actsM_[i];
    }
    return actsM_.back();
}

const Matrix &
Network::infer(const Matrix &in)
{
    assert(in.cols() == inputSize_);
    const Matrix *cur = &in;
    for (std::size_t i = 0; i < layers_.size(); i++) {
        layers_[i].forwardInfer(*cur, actsM_[i]);
        cur = &actsM_[i];
    }
    return actsM_.back();
}

void
Network::forward(const Matrix &in, const LaneGroups &groups, float *out)
{
    assert(in.cols() == inputSize_);
    const Matrix *cur = &in;
    for (std::size_t i = 0; i + 1 < layers_.size(); i++) {
        layers_[i].forward(*cur, actsM_[i]);
        cur = &actsM_[i];
    }
    layers_.back().forwardLanes(*cur, groups, out);
}

void
Network::backward(const Matrix &gradOut)
{
    assert(gradOut.cols() == outputSize());
    // Ping-pong between two scratch matrices, feeding the caller's
    // gradient straight into the top layer (no defensive copy).
    const Matrix *grad = &gradOut;
    Matrix *cur = &gradScratchMA_;
    Matrix *next = &gradScratchMB_;
    for (std::size_t i = layers_.size(); i-- > 0;) {
        // The bottom layer's input gradient has no consumer; skip it.
        layers_[i].backward(*grad, *cur, /*computeGradIn=*/i != 0);
        grad = cur;
        std::swap(cur, next);
    }
}

void
Network::reserveBatch(std::size_t rows, bool backward)
{
    std::size_t widest = 0;
    for (std::size_t i = 0; i < layers_.size(); i++) {
        layers_[i].reserveBatch(rows, backward);
        actsM_[i].reserve(rows, layers_[i].outSize());
        widest = std::max(widest, layers_[i].inSize());
    }
    if (backward) {
        gradScratchMA_.reserve(rows, widest);
        gradScratchMB_.reserve(rows, widest);
    }
}

void
Network::clearGrads()
{
    for (auto &l : layers_)
        l.clearGrads();
}

void
Network::copyWeightsFrom(const Network &other)
{
    assert(layers_.size() == other.layers_.size());
    for (std::size_t i = 0; i < layers_.size(); i++) {
        assert(layers_[i].inSize() == other.layers_[i].inSize() &&
               layers_[i].outSize() == other.layers_[i].outSize());
        layers_[i].weights() = other.layers_[i].weights();
        layers_[i].bias() = other.layers_[i].bias();
    }
}

std::size_t
Network::paramCount() const
{
    std::size_t n = 0;
    for (const auto &l : layers_)
        n += l.paramCount();
    return n;
}

std::vector<float>
Network::saveParams() const
{
    std::vector<float> out;
    out.reserve(paramCount());
    for (const auto &l : layers_) {
        const Matrix &w = l.weights();
        out.insert(out.end(), w.data(), w.data() + w.size());
        out.insert(out.end(), l.bias().begin(), l.bias().end());
    }
    return out;
}

void
Network::loadParams(const std::vector<float> &params)
{
    if (params.size() != paramCount())
        throw std::invalid_argument("Network::loadParams: size mismatch");
    std::size_t pos = 0;
    for (auto &l : layers_) {
        Matrix &w = l.weights();
        for (std::size_t i = 0; i < w.size(); i++)
            w.data()[i] = params[pos++];
        for (auto &b : l.bias())
            b = params[pos++];
    }
}

std::size_t
Network::outputSize() const
{
    return layers_.back().outSize();
}

} // namespace sibyl::ml

#include "rl/value_agent.hh"

#include <algorithm>
#include <stdexcept>

namespace sibyl::rl
{

namespace
{

// Prioritized replay exponents (Schaul et al., 2016): prioritization
// and importance-weight correction.
constexpr double kPerAlpha = 0.6;
constexpr double kPerBeta = 0.4;

} // namespace

ValueAgent::ValueAgent(const AgentConfig &cfg,
                       std::unique_ptr<ValueHead> head)
    : Agent(cfg, head->salts().rng),
      head_(std::move(head)),
      buffer_(cfg.bufferCapacity, cfg.dedupBuffer),
      optimizer_(cfg.learningRate)
{
    // A zero cadence would reach a modulo by zero in observe() and
    // kill the whole process; reject it here, where the runner records
    // it as one failed run.
    const std::string who = head_->name() + " agent: ";
    if (cfg_.targetSyncEvery == 0)
        throw std::invalid_argument(
            who + "targetSyncEvery must be >= 1 (weight-sync cadence)");
    if (cfg_.trainEvery == 0 && cfg_.bufferCapacity == 0)
        throw std::invalid_argument(
            who + "bufferCapacity must be >= 1 when trainEvery is 0 (the "
                  "training cadence is then one buffer fill)");

    std::vector<ml::LayerSpec> layers;
    for (auto h : cfg_.hidden)
        layers.push_back({h, ml::Activation::Swish});
    layers.push_back({head_->outputWidth(), ml::Activation::Identity});

    const ValueHead::Salts salts = head_->salts();
    Pcg32 initRng(cfg.seed, salts.trainInit);
    trainingNet_ = std::make_unique<ml::Network>(cfg_.stateDim, layers,
                                                 initRng);
    Pcg32 initRng2(cfg.seed, salts.inferInit);
    inferenceNet_ = std::make_unique<ml::Network>(cfg_.stateDim, layers,
                                                  initRng2);
    inferenceNet_->copyWeightsFrom(*trainingNet_);

    // Size the batch-shaped training scratch for a full batch up front.
    // Cache misses, folded rows and distinct predictions vary from
    // batch to batch; buffers grown to each new high-water mark would
    // keep allocating in rounds long after warm-up.
    const std::size_t batch = cfg_.batchSize;
    trainingNet_->reserveBatch(batch, /*backward=*/true);
    inferenceNet_->reserveBatch(batch, /*backward=*/false);
    stateBatch_.reserve(batch, cfg_.stateDim);
    nextBatch_.reserve(batch, cfg_.stateDim);
    uncachedRows_.reserve(batch);
    uniqueIdx_.reserve(batch);
    rewards_.reserve(batch);
}

void
ValueAgent::setLearningRate(double lr)
{
    cfg_.learningRate = lr;
    optimizer_.setLearningRate(lr);
}

std::vector<double>
ValueAgent::qValues(const ml::Vector &state)
{
    const float *out = inferenceNet_->inferRow(state);
    std::vector<double> q(cfg_.numActions);
    head_->values(out, q.data());
    return q;
}

std::uint32_t
ValueAgent::greedyAction(const ml::Vector &state)
{
    return selectActionFromRow(inferenceNet_->inferRow(state));
}

bool
ValueAgent::selectActionBegin(const ml::Vector &state,
                              std::uint32_t &action)
{
    // A Boltzmann draw needs the Q row, so that kind evaluates the
    // network here; a greedy decision leaves the row to the caller.
    return explore(
        [&](double *q) { head_->values(inferenceNet_->inferRow(state), q); },
        action);
}

std::uint32_t
ValueAgent::selectActionFromRow(const float *row)
{
    return head_->greedy(row, actionMask_,
                         !maskCoversAll(actionMask_, cfg_.numActions));
}

std::uint32_t
ValueAgent::selectAction(const ml::Vector &state)
{
    std::uint32_t action = 0;
    if (selectActionBegin(state, action))
        return action;
    return selectActionFromRow(inferenceNet_->inferRow(state));
}

void
ValueAgent::observe(const ml::Vector &state, std::uint32_t action,
                    float reward, const ml::Vector &nextState)
{
    if (buffer_.add(state, action, reward, nextState) &&
        !targetValid_.empty()) {
        targetValid_[buffer_.lastAddIndex()] = 0;
    }
    observations_++;

    // Train once the buffer has filled, then at every cadence boundary
    // (Algorithm 1, line 16; the paper's cadence is one buffer fill).
    const std::uint64_t cadence =
        cfg_.trainEvery ? cfg_.trainEvery : cfg_.bufferCapacity;
    if (buffer_.full() && observations_ % cadence == 0)
        trainRound();
    // Copy training -> inference weights every targetSyncEvery requests
    // (§6.2.2: every 1000 requests).
    if (observations_ % cfg_.targetSyncEvery == 0 &&
        stats_.trainingRounds > 0)
        syncWeights();
}

double
ValueAgent::trainRound()
{
    return runRound(&ValueAgent::trainBatch);
}

double
ValueAgent::trainRoundPerSample()
{
    return runRound(&ValueAgent::trainPerSample);
}

double
ValueAgent::runRound(double (ValueAgent::*trainOne)())
{
    double loss = 0.0;
    for (std::uint32_t b = 0; b < cfg_.batchesPerTraining; b++) {
        if (cfg_.prioritizedReplay)
            buffer_.samplePrioritizedIndices(cfg_.batchSize, rng_,
                                             kPerAlpha, sampled_);
        else
            buffer_.sampleIndices(cfg_.batchSize, rng_, sampled_);
        if (sampled_.empty())
            continue;
        loss += (this->*trainOne)();
        stats_.gradientSteps += sampled_.size();
    }
    stats_.trainingRounds++;
    const double prev = stats_.lastLoss;
    stats_.lastLoss = loss / std::max(1u, cfg_.batchesPerTraining);
    // VDBE feedback from the round-to-round change in mean loss.
    explore_.observeValueDelta(head_->valueDelta(stats_.lastLoss, prev));
    return stats_.lastLoss;
}

double
ValueAgent::trainBatch()
{
    const std::size_t batch = sampled_.size();
    const std::size_t width = head_->targetWidth();
    const bool fold = cfg_.foldDuplicateStates;
    const bool useCache =
        cfg_.cacheNextValues && !head_->selectsWithTrainingNet();
    const bool per = cfg_.prioritizedReplay;

    // Duplicate-state folding: observations are coarsely binned, so a
    // sampled batch repeats rows; byte-identical states share one
    // forward/backward row with their output gradients summed (exact
    // up to float summation order — gradients are linear in gradOut
    // for a fixed input row). See buildStateFoldMapRows in agent.hh.
    std::size_t uRows = batch;
    if (fold) {
        uRows = buildStateFoldMapRows(
            [&](std::size_t r) -> const ml::Vector & {
                return buffer_[sampled_[r]].state;
            },
            batch, foldKeys_, foldVals_, rowToUnique_, uniqueIdx_);
    }
    stateBatch_.resize(uRows, cfg_.stateDim);
    for (std::size_t r = 0; r < uRows; r++) {
        const Experience &e = buffer_[sampled_[fold ? uniqueIdx_[r] : r]];
        std::copy(e.state.begin(), e.state.end(), stateBatch_.row(r));
    }

    // Bellman targets from the frozen inference network: one batched
    // forward per network and one head call for the whole batch.
    if (useCache) {
        // The inference network is frozen between syncs and training
        // rounds resample the same ring heavily, so most rows' targets
        // were already computed this sync period. Evaluate only the
        // misses as one compact batch and scatter them into the
        // slot-indexed cache; the batched row kernels and the head make
        // each row's result independent of batch composition, and
        // reward and gamma are entry-fixed, so a cache hit is
        // bit-identical to a fresh evaluation. Sized from the buffer's
        // actual capacity (which clamps a zero config to 1), so slot
        // indices always fit.
        targetCache_.resize(buffer_.capacity(), width);
        targetValid_.resize(buffer_.capacity(), 0);
        uncachedRows_.clear();
        for (const std::size_t idx : sampled_) {
            if (!targetValid_[idx]) {
                targetValid_[idx] = 2; // queued this batch
                uncachedRows_.push_back(idx);
            }
        }
        const std::size_t misses = uncachedRows_.size();
        if (misses) {
            nextBatch_.resize(misses, cfg_.stateDim);
            rewards_.resize(misses);
            for (std::size_t r = 0; r < misses; r++) {
                const Experience &e = buffer_[uncachedRows_[r]];
                std::copy(e.nextState.begin(), e.nextState.end(),
                          nextBatch_.row(r));
                rewards_[r] = e.reward;
            }
            const ml::Matrix &fresh = inferenceNet_->infer(nextBatch_);
            // targetBatch_ holds the misses' targets until they are
            // scattered; the gather below then refills it by row.
            targetBatch_.resize(misses, width);
            head_->target(fresh.data(), nullptr, rewards_.data(), misses,
                          targetBatch_.data());
            for (std::size_t r = 0; r < misses; r++) {
                const std::size_t idx = uncachedRows_[r];
                std::copy_n(targetBatch_.row(r), width,
                            targetCache_.row(idx));
                targetValid_[idx] = 1;
            }
        }
        targetBatch_.resize(batch, width);
        for (std::size_t r = 0; r < batch; r++)
            std::copy_n(targetCache_.row(sampled_[r]), width,
                        targetBatch_.row(r));
    } else {
        nextBatch_.resize(batch, cfg_.stateDim);
        rewards_.resize(batch);
        for (std::size_t r = 0; r < batch; r++) {
            const Experience &e = buffer_[sampled_[r]];
            std::copy(e.nextState.begin(), e.nextState.end(),
                      nextBatch_.row(r));
            rewards_[r] = e.reward;
        }
        // Double DQN selects the next action with the live training
        // network and scores it with the frozen one.
        const ml::Matrix *sel = head_->selectsWithTrainingNet()
            ? &trainingNet_->infer(nextBatch_)
            : nullptr;
        const ml::Matrix &eval = inferenceNet_->infer(nextBatch_);
        targetBatch_.resize(batch, width);
        head_->target(eval.data(), sel ? sel->data() : nullptr,
                      rewards_.data(), batch, targetBatch_.data());
    }

    // PER importance weights come from the distribution the batch was
    // sampled under, before the per-element priority refreshes below.
    if (per) {
        buffer_.importanceWeights(sampled_, kPerAlpha, kPerBeta,
                                  perWeights_);
        weights_.resize(batch);
        for (std::size_t r = 0; r < batch; r++)
            weights_[r] = static_cast<float>(perWeights_[r]);
    }
    actions_.resize(batch);
    for (std::size_t r = 0; r < batch; r++)
        actions_[r] = buffer_[sampled_[r]].action;
    losses_.resize(batch);
    priorities_.resize(batch);
    ValueHead::LossBatch lb{.rows = batch,
                            .outRows = uRows,
                            .outRow = fold ? rowToUnique_.data() : nullptr,
                            .actions = actions_.data(),
                            .targets = targetBatch_.data(),
                            .weights = per ? weights_.data() : nullptr,
                            .losses = losses_.data(),
                            .priorities = priorities_.data()};

    // The state forward must come last so the training network's
    // cached batch intermediates belong to the rows we backpropagate.
    // A head that reads output slices gets just those, lane-major.
    const ValueHead::Lanes lanes = head_->planLoss(lb);
    if (lanes.groups)
        trainingNet_->forward(stateBatch_, *lanes.groups, lanes.out);
    else
        lb.out = trainingNet_->forward(stateBatch_).data();
    gradOutM_.resize(uRows, head_->outputWidth());
    gradOutM_.fill(0.0f);
    lb.grad = gradOutM_.data();
    head_->loss(lb);

    // Row order, as a row-by-row loop would: the loss sum's rounding
    // and the last write of a slot sampled twice depend on it.
    double totalLoss = 0.0;
    for (std::size_t r = 0; r < batch; r++) {
        totalLoss += losses_[r];
        if (per)
            buffer_.setPriority(sampled_[r], priorities_[r]);
    }

    trainingNet_->backward(gradOutM_);
    optimizer_.step(*trainingNet_, batch);
    return totalLoss / static_cast<double>(batch);
}

double
ValueAgent::trainPerSample()
{
    const std::vector<std::size_t> &indices = sampled_;
    // Same sampling-time importance weights as the batched path, so
    // the two paths stay numerically equivalent.
    if (cfg_.prioritizedReplay)
        buffer_.importanceWeights(indices, kPerAlpha, kPerBeta,
                                  perWeights_);

    double totalLoss = 0.0;
    ml::Vector target(head_->targetWidth()), gradOut;
    for (std::size_t k = 0; k < indices.size(); k++) {
        const std::size_t idx = indices[k];
        const Experience &e = buffer_[idx];

        // Bellman target from the frozen inference network (with the
        // training network choosing the action for Double DQN), as a
        // batch of one.
        const ml::Vector *sel = head_->selectsWithTrainingNet()
            ? &trainingNet_->forward(e.nextState)
            : nullptr;
        const ml::Vector &next = inferenceNet_->forward(e.nextState);
        head_->target(next.data(), sel ? sel->data() : nullptr, &e.reward,
                      1, target.data());

        const ml::Vector &out = trainingNet_->forward(e.state);
        gradOut.assign(out.size(), 0.0f);
        const float weight = cfg_.prioritizedReplay
            ? static_cast<float>(perWeights_[k])
            : 1.0f;
        double loss = 0.0;
        float priority = 0.0f;
        head_->loss({.rows = 1,
                     .out = out.data(),
                     .outRows = 1,
                     .actions = &e.action,
                     .targets = target.data(),
                     .weights = &weight,
                     .grad = gradOut.data(),
                     .losses = &loss,
                     .priorities = &priority});
        totalLoss += loss;
        if (cfg_.prioritizedReplay)
            buffer_.setPriority(idx, priority);
        trainingNet_->backward(gradOut);
    }
    optimizer_.step(*trainingNet_, indices.size());
    return totalLoss / static_cast<double>(indices.size());
}

void
ValueAgent::syncWeights()
{
    inferenceNet_->copyWeightsFrom(*trainingNet_);
    stats_.weightSyncs++;
    // The frozen network the cached Bellman targets came from is gone.
    std::fill(targetValid_.begin(), targetValid_.end(), 0);
}

std::size_t
ValueAgent::storageBytes() const
{
    // Two fp16 networks (§10.2) plus the replay buffer at 100 bits per
    // experience (40-bit state + 4-bit action + 16-bit reward + 40-bit
    // next state).
    const std::size_t nets = 2 * trainingNet_->paramCount() * 2;
    const std::size_t buffer = cfg_.bufferCapacity * 100 / 8;
    return nets + buffer;
}

} // namespace sibyl::rl

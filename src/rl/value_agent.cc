#include "rl/value_agent.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sibyl::rl
{

ValueAgent::ValueAgent(const AgentConfig &cfg,
                       std::unique_ptr<ValueHead> head)
    : cfg_(cfg),
      head_(std::move(head)),
      explore_(makeExploration(cfg)),
      rng_(cfg.seed, head_->salts().rng),
      buffer_(cfg.bufferCapacity, cfg.dedupBuffer)
{
    // A zero cadence would reach a modulo by zero in afterObserve() and
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
    if (cfg_.asyncTraining && cfg_.prioritizedReplay)
        throw std::invalid_argument(
            who + "asyncTraining is incompatible with prioritizedReplay "
                  "(priority updates between batches would change the "
                  "pre-sampled draws)");
    if (cfg_.asyncTraining &&
        cfg_.exploration.kind == ExplorationKind::Vdbe)
        throw std::invalid_argument(
            who + "asyncTraining is incompatible with VDBE exploration "
                  "(its epsilon consumes training-loss feedback at the "
                  "tick)");

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

    if (cfg_.useAdam)
        optimizer_ = std::make_unique<ml::Adam>(cfg_.learningRate);
    else
        optimizer_ = std::make_unique<ml::Sgd>(cfg_.learningRate);
}

ValueAgent::~ValueAgent()
{
    // A dispatched round references this agent's training-side state;
    // join it before members destruct (wait, not get: a throwing round
    // must not escalate to std::terminate from a destructor).
    if (roundStaged_ && stagedFuture_.valid())
        stagedFuture_.wait();
}

void
ValueAgent::setLearningRate(double lr)
{
    cfg_.learningRate = lr;
    optimizer_->setLearningRate(lr);
}

std::vector<double>
ValueAgent::qValues(const ml::Vector &state)
{
    const float *out = inferenceNet_->inferRow(state);
    std::vector<double> q(cfg_.numActions);
    for (std::uint32_t a = 0; a < cfg_.numActions; a++)
        q[a] = head_->actionValue(out, a);
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
    const std::uint64_t step = stats_.decisions++;
    const bool restricted = !maskCoversAll(actionMask_, cfg_.numActions);
    if (explore_.isBoltzmann()) {
        // The Boltzmann draw's arguments depend on the Q row, so this
        // path cannot defer the network evaluation; resolve inline.
        const float *out = inferenceNet_->inferRow(state);
        if (restricted) {
            // Compact the allowed actions, sample over them, map the
            // sampled index back to an action id.
            const auto allowed = static_cast<std::uint32_t>(
                std::popcount(actionMask_));
            qScratch_.resize(allowed);
            for (std::uint32_t i = 0; i < allowed; i++)
                qScratch_[i] =
                    head_->actionValue(out, nthSetBit(actionMask_, i));
            const auto greedy = static_cast<std::uint32_t>(
                std::max_element(qScratch_.begin(), qScratch_.end()) -
                qScratch_.begin());
            const std::uint32_t idx =
                explore_.sampleBoltzmann(qScratch_, rng_);
            if (idx != greedy)
                stats_.randomActions++;
            action = nthSetBit(actionMask_, idx);
            return true;
        }
        qScratch_.resize(cfg_.numActions);
        for (std::uint32_t a = 0; a < cfg_.numActions; a++)
            qScratch_[a] = head_->actionValue(out, a);
        const auto greedy = static_cast<std::uint32_t>(
            std::max_element(qScratch_.begin(), qScratch_.end()) -
            qScratch_.begin());
        action = explore_.sampleBoltzmann(qScratch_, rng_);
        if (action != greedy)
            stats_.randomActions++;
        return true;
    }
    if (rng_.nextBool(explore_.epsilonAt(step))) {
        stats_.randomActions++;
        // One bounded draw either way; a restricting mask only narrows
        // the range, so the fault-free RNG stream is untouched.
        action = restricted
            ? nthSetBit(actionMask_,
                        rng_.nextBounded(static_cast<std::uint32_t>(
                            std::popcount(actionMask_))))
            : rng_.nextBounded(cfg_.numActions);
        return true;
    }
    return false; // greedy: caller evaluates the inference network row
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
ValueAgent::observe(Experience e)
{
    if (buffer_.add(std::move(e)) && !targetValid_.empty())
        targetValid_[buffer_.lastAddIndex()] = 0;
    afterObserve();
}

void
ValueAgent::observeTransition(const ml::Vector &state, std::uint32_t action,
                              float reward, const ml::Vector &nextState)
{
    if (buffer_.add(state, action, reward, nextState) &&
        !targetValid_.empty()) {
        targetValid_[buffer_.lastAddIndex()] = 0;
    }
    afterObserve();
}

void
ValueAgent::afterObserve()
{
    observations_++;

    // Train once the buffer has filled, then at every cadence boundary
    // (Algorithm 1, line 16; the paper's cadence is one buffer fill).
    // Asynchronous mode stages the round here (after committing its
    // predecessor) and lets it execute off-thread; both the staging
    // and the commit happen at these same deterministic tick counts,
    // so where the round actually runs can never change a result.
    // Without an executor there is nothing to overlap with, so the
    // round just runs synchronously — same draws, same weights, none
    // of the snapshot/recompute overhead staging pays for thread
    // safety.
    const std::uint64_t cadence =
        cfg_.trainEvery ? cfg_.trainEvery : cfg_.bufferCapacity;
    if (buffer_.full() && observations_ % cadence == 0) {
        if (cfg_.asyncTraining && trainExec_) {
            commitStagedRound();
            stageRound();
        } else {
            trainRound();
        }
    }
    // Copy training -> inference weights every targetSyncEvery requests
    // (§6.2.2: every 1000 requests). Every staged round commits first:
    // the published weights always include all training staged so far,
    // exactly as in synchronous mode.
    if (observations_ % cfg_.targetSyncEvery == 0) {
        if (cfg_.asyncTraining)
            commitStagedRound();
        if (stats_.trainingRounds > 0)
            syncWeights();
    }
}

double
ValueAgent::trainRound()
{
    commitStagedRound(); // tests may force a round mid-flight
    double loss = 0.0;
    for (std::uint32_t b = 0; b < cfg_.batchesPerTraining; b++)
        loss += trainBatch();
    foldRound(loss);
    return stats_.lastLoss;
}

void
ValueAgent::foldRound(double lossSum)
{
    stats_.trainingRounds++;
    const double prev = stats_.lastLoss;
    stats_.lastLoss = lossSum / std::max(1u, cfg_.batchesPerTraining);
    explore_.observeValueDelta(head_->valueDelta(stats_.lastLoss, prev));
}

double
ValueAgent::trainBatch()
{
    const auto indices = cfg_.prioritizedReplay
        ? buffer_.samplePrioritizedIndices(cfg_.batchSize, rng_,
                                           cfg_.perAlpha)
        : buffer_.sampleIndices(cfg_.batchSize, rng_);
    if (indices.empty())
        return 0.0;
    double loss;
    if (cfg_.batchedTraining) {
        batchRows_.resize(indices.size());
        for (std::size_t r = 0; r < indices.size(); r++)
            batchRows_[r] = &buffer_[indices[r]];
        loss = trainMinibatch(&indices, *inferenceNet_);
    } else {
        loss = trainPerSample(indices);
    }
    stats_.gradientSteps += indices.size();
    return loss;
}

double
ValueAgent::trainMinibatch(const std::vector<std::size_t> *slots,
                           ml::Network &targetNet)
{
    const std::size_t batch = batchRows_.size();
    const std::size_t width = head_->targetWidth();
    const bool fold = cfg_.foldDuplicateStates;
    const bool useCache = slots && cfg_.cacheNextValues &&
                          !head_->selectsWithTrainingNet();
    const bool per = slots && cfg_.prioritizedReplay;

    // Duplicate-state folding: observations are coarsely binned, so a
    // sampled batch repeats rows; byte-identical states share one
    // forward/backward row with their output gradients summed (exact
    // up to float summation order — gradients are linear in gradOut
    // for a fixed input row). See buildStateFoldMapRows in agent.hh.
    std::size_t uRows = batch;
    if (fold) {
        uRows = buildStateFoldMapRows(
            [&](std::size_t r) -> const ml::Vector & {
                return batchRows_[r]->state;
            },
            batch, foldKeys_, foldVals_, rowToUnique_, uniqueIdx_);
    }
    stateBatch_.resize(uRows, cfg_.stateDim);
    for (std::size_t r = 0; r < uRows; r++) {
        const Experience &e = *batchRows_[fold ? uniqueIdx_[r] : r];
        std::copy(e.state.begin(), e.state.end(), stateBatch_.row(r));
    }

    // Bellman targets from the frozen target network: one batched
    // forward per network instead of one matvec chain per sample.
    if (useCache) {
        // The inference network is frozen between syncs and training
        // rounds resample the same ring heavily, so most rows' targets
        // were already computed this sync period. Evaluate only the
        // misses as one compact batch and scatter them into the
        // slot-indexed cache; the batched row kernels make each row's
        // result independent of batch composition, and reward and
        // gamma are entry-fixed, so a cache hit is bit-identical to a
        // fresh evaluation. Sized from the buffer's actual capacity
        // (which clamps a zero config to 1), so slot indices always
        // fit.
        targetCache_.resize(buffer_.capacity(), width);
        targetValid_.resize(buffer_.capacity(), 0);
        uncachedRows_.clear();
        for (const std::size_t idx : *slots) {
            if (!targetValid_[idx]) {
                targetValid_[idx] = 2; // queued this batch
                uncachedRows_.push_back(idx);
            }
        }
        if (!uncachedRows_.empty()) {
            nextBatch_.resize(uncachedRows_.size(), cfg_.stateDim);
            for (std::size_t r = 0; r < uncachedRows_.size(); r++) {
                const Experience &e = buffer_[uncachedRows_[r]];
                std::copy(e.nextState.begin(), e.nextState.end(),
                          nextBatch_.row(r));
            }
            const ml::Matrix &fresh = targetNet.infer(nextBatch_);
            for (std::size_t r = 0; r < uncachedRows_.size(); r++) {
                const std::size_t idx = uncachedRows_[r];
                head_->target(fresh.row(r), nullptr, buffer_[idx].reward,
                              targetCache_.row(idx));
                targetValid_[idx] = 1;
            }
        }
    } else {
        nextBatch_.resize(batch, cfg_.stateDim);
        for (std::size_t r = 0; r < batch; r++) {
            const Experience &e = *batchRows_[r];
            std::copy(e.nextState.begin(), e.nextState.end(),
                      nextBatch_.row(r));
        }
        // Double DQN selects the next action with the live training
        // network and scores it with the frozen one.
        const ml::Matrix *sel = head_->selectsWithTrainingNet()
            ? &trainingNet_->infer(nextBatch_)
            : nullptr;
        const ml::Matrix &eval = targetNet.infer(nextBatch_);
        targetBatch_.resize(batch, width);
        for (std::size_t r = 0; r < batch; r++) {
            head_->target(eval.row(r), sel ? sel->row(r) : nullptr,
                          batchRows_[r]->reward, targetBatch_.row(r));
        }
    }

    // The state forward must come last so the training network's
    // cached batch intermediates belong to the rows we backpropagate.
    const ml::Matrix &out = trainingNet_->forward(stateBatch_);
    gradOutM_.resize(uRows, out.cols());
    gradOutM_.fill(0.0f);

    // PER importance weights come from the distribution the batch was
    // sampled under, before the per-element priority refreshes below.
    std::vector<double> perWeights;
    if (per)
        perWeights = buffer_.importanceWeights(*slots, cfg_.perAlpha,
                                               cfg_.perBeta);

    double totalLoss = 0.0;
    for (std::size_t r = 0; r < batch; r++) {
        const std::size_t ui = fold ? rowToUnique_[r] : r;
        const float *target = useCache ? targetCache_.row((*slots)[r])
                                       : targetBatch_.row(r);
        const float weight =
            per ? static_cast<float>(perWeights[r]) : 1.0f;
        float priority = 0.0f;
        totalLoss += head_->loss(out.row(ui), batchRows_[r]->action,
                                 target, weight, gradOutM_.row(ui),
                                 priority);
        if (per)
            buffer_.setPriority((*slots)[r], priority);
    }

    trainingNet_->backward(gradOutM_);
    optimizer_->step(*trainingNet_, batch);
    return totalLoss / static_cast<double>(batch);
}

double
ValueAgent::trainPerSample(const std::vector<std::size_t> &indices)
{
    // Same sampling-time importance weights as the batched path, so
    // the two paths stay numerically equivalent.
    std::vector<double> perWeights;
    if (cfg_.prioritizedReplay)
        perWeights = buffer_.importanceWeights(indices, cfg_.perAlpha,
                                               cfg_.perBeta);

    double totalLoss = 0.0;
    ml::Vector target(head_->targetWidth()), gradOut;
    for (std::size_t k = 0; k < indices.size(); k++) {
        const std::size_t idx = indices[k];
        const Experience &e = buffer_[idx];

        // Bellman target from the frozen inference network (with the
        // training network choosing the action for Double DQN).
        const ml::Vector *sel = head_->selectsWithTrainingNet()
            ? &trainingNet_->forward(e.nextState)
            : nullptr;
        const ml::Vector &next = inferenceNet_->forward(e.nextState);
        head_->target(next.data(), sel ? sel->data() : nullptr, e.reward,
                      target.data());

        const ml::Vector &out = trainingNet_->forward(e.state);
        gradOut.assign(out.size(), 0.0f);
        const float weight = cfg_.prioritizedReplay
            ? static_cast<float>(perWeights[k])
            : 1.0f;
        float priority = 0.0f;
        totalLoss += head_->loss(out.data(), e.action, target.data(),
                                 weight, gradOut.data(), priority);
        if (cfg_.prioritizedReplay)
            buffer_.setPriority(idx, priority);
        trainingNet_->backward(gradOut);
    }
    optimizer_->step(*trainingNet_, indices.size());
    return totalLoss / static_cast<double>(indices.size());
}

void
ValueAgent::setTrainingExecutor(TrainingExecutor exec)
{
    commitStagedRound(); // never leave a round on a retiring executor
    trainExec_ = std::move(exec);
}

void
ValueAgent::finishTraining()
{
    commitStagedRound();
}

void
ValueAgent::stageRound()
{
    assert(!roundStaged_);
    // Pre-sample every batch of the round with the decision-path RNG —
    // the exact draws the synchronous trainRound() makes at this tick
    // (the minibatch trainer itself draws nothing) — so the serving
    // RNG stream is independent of where the round executes.
    stagedBatches_.resize(cfg_.batchesPerTraining);
    std::size_t total = 0;
    for (auto &b : stagedBatches_) {
        b = buffer_.sampleIndices(cfg_.batchSize, rng_);
        total += b.size();
    }
    // Snapshot the sampled transitions: the ring keeps filling while
    // the round is in flight, so the round must read frozen copies.
    // Element-wise assigns reuse each slot's capacity across rounds.
    if (stagedExp_.size() < total)
        stagedExp_.resize(total);
    std::size_t pos = 0;
    for (const auto &b : stagedBatches_) {
        for (const std::size_t idx : b) {
            const Experience &e = buffer_[idx];
            Experience &s = stagedExp_[pos++];
            s.state.assign(e.state.begin(), e.state.end());
            s.action = e.action;
            s.reward = e.reward;
            s.nextState.assign(e.nextState.begin(), e.nextState.end());
        }
    }
    // Freeze the Bellman-target weights. The inference network cannot
    // change before this round commits (sync ticks commit first), so
    // the private copy equals what the synchronous round would read.
    if (!asyncTargetNet_)
        asyncTargetNet_ = std::make_unique<ml::Network>(*inferenceNet_);
    else
        asyncTargetNet_->copyWeightsFrom(*inferenceNet_);

    roundStaged_ = true;
    if (trainExec_) {
        auto task = std::make_shared<std::packaged_task<void()>>(
            [this] { runStagedRound(); });
        stagedFuture_ = task->get_future();
        trainExec_([task] { (*task)(); });
    } else {
        stagedFuture_ = std::future<void>(); // run inline at commit
    }
}

void
ValueAgent::commitStagedRound()
{
    if (!roundStaged_)
        return;
    if (stagedFuture_.valid())
        stagedFuture_.get();
    else
        runStagedRound();
    roundStaged_ = false;
    // Fold exactly as trainRound() does.
    stats_.gradientSteps += stagedGradSteps_;
    foldRound(stagedLoss_);
}

void
ValueAgent::runStagedRound()
{
    // Targets are recomputed for every row from the frozen private
    // target net (the cache-off shape of the synchronous round).
    // Because the batched row kernels make each row independent of
    // batch composition and asyncTargetNet_ carries the weights the
    // synchronous round's cache was filled under, every target is
    // bit-identical to the synchronous path's. Double DQN keeps
    // selecting with the live training network, whose weights at this
    // point in the committed round sequence equal the synchronous
    // path's.
    double loss = 0.0;
    std::uint64_t steps = 0;
    std::size_t base = 0;
    for (const auto &b : stagedBatches_) {
        if (!b.empty()) {
            batchRows_.resize(b.size());
            for (std::size_t r = 0; r < b.size(); r++)
                batchRows_[r] = &stagedExp_[base + r];
            loss += trainMinibatch(nullptr, *asyncTargetNet_);
            steps += b.size();
        }
        base += b.size();
    }
    stagedLoss_ = loss;
    stagedGradSteps_ = steps;
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

/**
 * @file
 * Agent checkpointing.
 *
 * Sibyl trains online and starts every workload with no prior
 * knowledge (§6.2.2), but a deployed storage stack restarts: saving
 * the learned policy across remounts is table stakes for a real
 * storage management layer. Checkpoints serialize an agent's learned
 * state — network parameters for the neural families, the Q-table for
 * the tabular one — with a self-describing header that is validated
 * on load, so a checkpoint can never be silently applied to a
 * mismatched agent.
 *
 * Format v2 (little-endian):
 *   magic "SBYLCKPT" | version u32 | family tag u32 |
 *   stateDim u32 | numActions u32 |
 *   payloadSize u64 | payloadChecksum u64 (FNV-1a over payload bytes) |
 *   payload (family-specific).
 *
 * The explicit payload length plus checksum means a truncated or
 * bit-flipped checkpoint is always *detected* — loadCheckpoint returns
 * an error string and leaves the agent bit-identical to its pre-load
 * state, never a half-applied restore. The run-supervision guardrail
 * (rl/guardrail.hh) reuses this serialization for its in-memory
 * last-good snapshots.
 */

#pragma once

#include <iosfwd>
#include <string>

#include "rl/agent.hh"

namespace sibyl::rl
{

/** Checkpoint format version written by this build. v2 added the
 *  payload length + FNV-1a checksum trailer to the header. */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/** Agent family recorded in the header; the values are on-disk format
 *  and never change. A ValueAgent's tag comes from its head. */
enum class FamilyTag : std::uint32_t
{
    C51 = 1,
    Dqn = 2,
    QTable = 3,
};

/**
 * Serialize @p agent's learned state to @p out.
 *
 * Supports ValueAgent (every head) and QTableAgent. Optimizer momentum
 * and the replay buffer are deliberately not persisted: on restore
 * the agent resumes decision-making immediately and re-accumulates
 * fresh experiences.
 */
void saveCheckpoint(const Agent &agent, std::ostream &out);

/**
 * Restore learned state saved by saveCheckpoint() into @p agent.
 *
 * @return Empty string on success, otherwise a description of the
 *         mismatch (wrong magic/version/family/dimensions, truncated
 *         or corrupted payload), in which case @p agent is unchanged.
 */
std::string loadCheckpoint(Agent &agent, std::istream &in);

/** Convenience file wrappers. The load overload returns an error
 *  string as above ("cannot open ..." for I/O failures). */
void saveCheckpointFile(const Agent &agent, const std::string &path);
std::string loadCheckpointFile(Agent &agent, const std::string &path);

} // namespace sibyl::rl

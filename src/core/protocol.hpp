// Replica-coordination protocol: the types every replica and the world
// share.
//
// This module is the paper's primary contribution. One class,
// ReplicaNode (core/replica.hpp), runs every position in the chain; the
// primary is a replica with no upstream link, so it starts active. The
// protocol rules map to code as follows:
//   P1 — ReplicaNode::HandleIoCompletion / InjectInput on the active
//        replica: buffer the interrupt, relay [E, Int] to the backup.
//   P2 — ReplicaNode::ActiveBoundary / FinishActiveBoundary: send [Tme_p];
//        (original variant) await acknowledgments for everything sent; add
//        timer interrupts based on Tme_p; deliver buffered interrupts; send
//        [end, E].
//   P3 — a standing replica's hypervisor never connects real device
//        interrupts to the guest; completions reach it only as relayed
//        messages.
//   P4 — ReplicaNode::OnMessage: acknowledge and buffer for delivery at the
//        end of epoch E.
//   P5 — ReplicaNode::TryAdvanceBoundary: await [Tme_p], resynchronise
//        clocks, await [end, E], deliver.
//   P6 — ReplicaNode::PromoteAtBoundary after the failure detector fires.
//   P7 — ReplicaNode::SynthesiseUncertainInterrupts: uncertain interrupts
//        for every outstanding I/O operation at the end of a failover epoch,
//        generically across every registered device.
//
// The revised protocol of section 4.3 ("New" in Table 1) drops the ack wait
// in P2 and instead gates every device interaction on all-acked (output
// commit): ProtocolVariant::kRevised.
//
// The protocol is stated over the I/O axioms IO1/IO2, not over any concrete
// device: this layer sees devices only as DeviceId-tagged IoDescriptor
// initiations and IoCompletionPayload completions, dispatched through the
// node's DeviceRegistry (devices/virtual_device.hpp). Adding a device never
// touches core/.
//
// Chain extension (beyond the paper's pair): replicas form a chain
// primary -> backup_1 -> ... -> backup_k. Each interior backup relays the
// protocol stream it receives to its own backup and defers its upstream
// acknowledgment until the relay is acknowledged downstream, so the
// output-commit guarantee holds transitively: nothing the environment can
// observe depends on state that any surviving backup might not reach. A
// promoted backup re-protects itself by continuing to replicate to its own
// backup (rules P1/P2 with itself in the primary role).
#ifndef HBFT_CORE_PROTOCOL_HPP_
#define HBFT_CORE_PROTOCOL_HPP_

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "core/state_transfer.hpp"
#include "hypervisor/hypervisor.hpp"
#include "net/channel.hpp"

namespace hbft {

enum class ProtocolVariant {
  kOriginal,  // P2 awaits acknowledgments at every epoch boundary ("Old").
  kRevised,   // No boundary wait; acks required before device output ("New").
};

struct ReplicationConfig {
  uint64_t epoch_length = 4096;
  ProtocolVariant variant = ProtocolVariant::kOriginal;
  bool tlb_takeover = true;
  // Record a virtual-machine state fingerprint at every epoch boundary on
  // all replicas (lockstep audit; used by tests, off for benchmarks).
  bool audit_lockstep = false;

  // Live state transfer (repair): pacing window, delta-convergence
  // threshold, and the pre-copy round cap.
  StateTransferConfig resync;
};

// The guest software to boot: an assembled image plus its interface symbols.
struct GuestProgram {
  const AssembledImage* image = nullptr;
  uint32_t entry_pc = 0;
  uint32_t wait_loop_begin = 0;  // Idle spin loop, for exact fast-forward.
  uint32_t wait_loop_end = 0;
};

// Injection point for the simulation's virtual-time events.
class EventScheduler {
 public:
  virtual ~EventScheduler() = default;
  virtual void ScheduleAt(SimTime t, std::function<void()> fn) = 0;
  // Earliest pending event, or SimTime::Max(). Nodes cap their run horizon
  // with this so events they scheduled themselves mid-slice (device
  // completions, timers) are handled at the right virtual time.
  virtual SimTime NextEventTime() const = 0;
};

// A schedulable actor (replica node or bare node) driven by the world loop.
class NodeActor {
 public:
  virtual ~NodeActor() = default;

  // Advances the node until its clock reaches `until`, it blocks on a
  // protocol wait, or it halts/dies.
  virtual void RunSlice(SimTime until) = 0;
  virtual bool runnable() const = 0;
  virtual SimTime clock() const = 0;
  virtual bool halted() const = 0;
  virtual bool dead() const = 0;
  // A replica still receiving a state transfer: parked, but neither halted
  // nor dead — the world must not wait on it to call a run complete.
  virtual bool joining() const { return false; }
};

// Protocol phases at which a failure can be injected, fired by whichever
// replica currently drives the devices (the primary, or a promoted backup).
enum class FailPhase {
  kNone,
  kBeforeSendTme,   // Epoch complete, [Tme_p] not yet sent.
  kAfterSendTme,    // [Tme_p] sent, acks not yet awaited.
  kAfterAckWait,    // Acks received, interrupts not yet delivered.
  kAfterDeliver,    // Interrupts delivered, [end, E] not yet sent.
  kAfterSendEnd,    // [end, E] sent, next epoch not yet started.
  kBeforeIoIssue,   // Guest initiated I/O; real device not yet touched.
  kAfterIoIssue,    // Real device operation in flight.
};

const char* FailPhaseName(FailPhase phase);

// A replica's place in the chain: the channels to its neighbours. Every
// field may be null — the primary has no upstream (which is what makes a
// replica start active), the last backup has no downstream, and a pair
// degenerates to exactly the paper's topology.
struct NodeLinks {
  Channel* up_in = nullptr;     // Protocol stream from the upstream replica.
  Channel* up_out = nullptr;    // Acknowledgments to the upstream replica.
  Channel* down_out = nullptr;  // Protocol stream to the downstream replica.
  Channel* down_in = nullptr;   // Acknowledgments from the downstream replica.
};

}  // namespace hbft

#endif  // HBFT_CORE_PROTOCOL_HPP_

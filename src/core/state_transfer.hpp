// Live state transfer: the repair half of the paper's fault-tolerance story.
//
// The protocol (P1-P7) keeps the environment fault-transparent through one
// fail-stop failure, but redundancy is only restored by bringing a fresh
// backup online. The transfer works like pre-copy live migration, adapted to
// the lockstep setting:
//
//   1. Pre-copy — the source (whichever chain tail will adopt the joiner:
//      the active replica when it runs alone, or the last standing backup)
//      keeps executing while it streams every memory page over the ordered
//      protocol channel as kStateChunk messages. Runs of all-zero pages
//      collapse into one cheap zero-run chunk. Sending is paced by the
//      protocol's own cumulative acknowledgments: at most `window` chunks
//      ride unacked, so a lossy link degrades throughput, never correctness
//      (go-back-N re-covers chunks like any other message).
//   2. Delta rounds — at each of the source's epoch boundaries, the pages
//      whose version (PhysicalMemory::PageVersion) moved since the previous
//      round re-queue. Rounds repeat until the delta is small (or a round
//      cap forces the issue).
//   3. Quiesce + cut — at a boundary with the queue drained and the delta
//      under threshold, the source synchronously sends the remaining written
//      pages plus a control snapshot (CPU, TLB, hypervisor, device models,
//      protocol counters) and switches the joiner on as its downstream
//      backup. Channel FIFO order guarantees the joiner owns a complete,
//      consistent "start of epoch E+1" state before the first post-cut
//      protocol message arrives, so P1-P7 simply resume over it.
//
// This class is the source-side bookkeeping only (queue, pacing, rounds,
// page versions, accounting); the replica node owns the channel and the
// snapshot itself, and streams while it holds one of these.
#ifndef HBFT_CORE_STATE_TRANSFER_HPP_
#define HBFT_CORE_STATE_TRANSFER_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/time.hpp"

namespace hbft {

class PhysicalMemory;

struct StateTransferConfig {
  uint32_t window = 32;               // Max unacked chunks in flight.
  uint32_t cut_threshold_pages = 64;  // Delta small enough to quiesce and cut.
  uint32_t max_rounds = 64;           // Force the cut after this many delta rounds.
};

class StateTransferSource {
 public:
  struct Report {
    SimTime cut_time = SimTime::Zero();
    bool cut = false;
    uint64_t cut_epoch = 0;         // The joiner resumes at the start of this epoch.
    uint64_t page_chunks = 0;       // Full-page chunks sent.
    uint64_t zero_run_chunks = 0;   // Zero-run chunks sent.
    uint64_t full_pages = 0;        // Pages in the initial sweep.
    uint64_t delta_pages = 0;       // Written pages re-queued by delta rounds.
    uint64_t rounds = 0;            // Delta rounds (epoch boundaries seen).
    uint64_t bytes_sent = 0;        // Wire bytes of every chunk incl. control.
  };

  // Queues every page of `memory` and remembers each page's version.
  StateTransferSource(const PhysicalMemory& memory, const StateTransferConfig& config);

  // The pages of `memory` whose version moved since the previous call (or
  // construction), ascending.
  std::vector<uint32_t> TakeWrittenPages(const PhysicalMemory& memory);

  // --- Page queue (initial sweep + delta rounds), deduplicated --------------

  bool HasPending() const { return !pending_.empty(); }
  uint32_t PeekPage() const { return pending_.front(); }
  uint32_t PopPage();
  void EnqueueDelta(const std::vector<uint32_t>& pages);

  // Whether this boundary's delta is small enough to quiesce and cut (the
  // queue has drained and `delta_size` is under threshold), or the round cap
  // says to stop chasing a write-hot guest and eat the larger final burst.
  bool ReadyToCut(size_t delta_size) const {
    return (pending_.empty() && delta_size <= config_.cut_threshold_pages) ||
           report_.rounds >= config_.max_rounds;
  }

  // --- Accounting -----------------------------------------------------------

  void NotePageChunk(size_t wire_bytes) {
    ++report_.page_chunks;
    report_.bytes_sent += wire_bytes;
  }
  void NoteZeroRun(size_t wire_bytes) {
    ++report_.zero_run_chunks;
    report_.bytes_sent += wire_bytes;
  }
  void NoteControl(size_t wire_bytes) { report_.bytes_sent += wire_bytes; }
  void MarkCut(SimTime t, uint64_t epoch) {
    report_.cut = true;
    report_.cut_time = t;
    report_.cut_epoch = epoch;
  }

  uint32_t window() const { return config_.window; }
  const Report& report() const { return report_; }

 private:
  StateTransferConfig config_;
  std::deque<uint32_t> pending_;
  std::vector<uint8_t> queued_;     // Membership bitmap over page indices.
  std::vector<uint32_t> versions_;  // Each page's version at the last look.
  Report report_;
};

}  // namespace hbft

#endif  // HBFT_CORE_STATE_TRANSFER_HPP_

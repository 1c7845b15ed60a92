// Doors-style shared-memory ring transport.
//
// The port and stream transports (src/ipc/transport.h) model message-queue
// IPC: every round trip pays a scheduler bounce and a marshalling copy
// through the kernel (cost_model.ipc_round_trip = 9000 cycles). Solaris
// doors showed the alternative: map a buffer into both address spaces, write
// the request into a fixed-size slot in place, and hand the slot off with a
// doorbell — a cross-process call for little more than a protected procedure
// call. Table 1's bootstrap-vs-integrated gap is an IPC-count story, so this
// is the transport that closes it (see `table1 --sweep`).
//
// Protocol. Two rings (request ring, reply ring) of fixed-size slots. A
// message occupies ceil(size / slot_bytes) consecutive slots, wrapping at
// the ring end. Each slot is published with a seqlock: the writer bumps the
// slot's sequence word to odd, fills the slot (chunk bytes, chunk length,
// per-slot FNV-1a checksum, total message length in the head slot), then
// bumps it to even and flips the slot state to kReady. The reader verifies
// the sequence is stable-even and the checksum matches before consuming;
// damage surfaces as a typed kCorrupted error and the ring resets to a
// clean state (the recovery analogue of the stream transport's pipe drain),
// so the retry machinery in Channel carries over unchanged.
//
// Fault sites (src/support/faultsim.h):
//   ring.corrupt  flip a byte in a just-published slot -> reader kCorrupted
//   ring.stall    peer never takes the handoff -> kTimeout after a bounded
//                 simulated spin, slots reclaimed
//
// Cost shape: ring_handoff per round trip plus ring_slot per slot spanned
// beyond the first in each direction — cheap and nearly flat in message
// size, vs ipc_round_trip + per-byte for the queue transports.
#ifndef OMOS_SRC_IPC_RING_TRANSPORT_H_
#define OMOS_SRC_IPC_RING_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/ipc/transport.h"
#include "src/support/result.h"

namespace omos {

// One direction of the shared ring (exposed for tests: wrap-around and
// corruption-recovery behaviour is unit-testable without a server).
class SharedMemoryRing {
 public:
  // `slots` is rounded up to a power of two; capacity = slots * slot_bytes.
  SharedMemoryRing(uint32_t slots, uint32_t slot_bytes);

  // Publish `message` into consecutive slots (seqlock discipline per slot).
  // kInvalidArgument if the message cannot fit in the ring at all;
  // kUnavailable if the peer has not yet drained enough slots.
  Result<void> Push(const std::vector<uint8_t>& message);

  // Consume the oldest published message: verify every slot's seqlock is
  // stable and its checksum matches, reassemble, free the slots.
  // kUnavailable on an empty ring; kCorrupted (after Reset()) on damage.
  Result<std::vector<uint8_t>> Pop();

  // Recovery: mark every slot free and rewind both cursors. The ring
  // analogue of the stream transport's desync drain.
  void Reset();

  uint32_t slot_count() const { return static_cast<uint32_t>(slots_.size()); }
  uint32_t slot_bytes() const { return slot_bytes_; }
  bool empty() const { return live_slots_ == 0; }

  // Slots a `size`-byte message would span.
  uint32_t SlotsFor(size_t size) const {
    return size == 0 ? 1 : static_cast<uint32_t>((size + slot_bytes_ - 1) / slot_bytes_);
  }

  // Lifetime traffic counters (authoritative; the transport mirrors them
  // into the ipc.ring.* registry metrics).
  uint64_t messages_pushed() const { return messages_pushed_; }
  uint64_t slots_published() const { return slots_published_; }
  uint64_t wraps() const { return wraps_; }
  uint64_t corruptions_seen() const { return corruptions_seen_; }

  // Damage a byte of a published slot in place (fault injection / tests).
  // The slot index is relative to the oldest unconsumed message.
  void CorruptByte(uint32_t slot_offset, uint32_t byte_offset, uint8_t mask);

 private:
  enum SlotState : uint32_t { kFree = 0, kReady = 1 };

  struct Slot {
    std::atomic<uint32_t> seq{0};  // seqlock: odd while being written
    uint32_t state = kFree;
    uint32_t chunk_len = 0;
    uint32_t total_len = 0;  // head slot of a message only
    uint32_t checksum = 0;   // FNV-1a over the chunk bytes
    std::vector<uint8_t> bytes;
  };

  uint32_t Mask() const { return static_cast<uint32_t>(slots_.size()) - 1; }

  std::vector<Slot> slots_;
  uint32_t slot_bytes_;
  uint32_t head_ = 0;  // next slot the writer publishes
  uint32_t tail_ = 0;  // next slot the reader consumes
  uint32_t live_slots_ = 0;
  uint64_t messages_pushed_ = 0;
  uint64_t slots_published_ = 0;
  uint64_t wraps_ = 0;
  uint64_t corruptions_seen_ = 0;
};

struct RingConfig {
  uint32_t slots = 64;
  uint32_t slot_bytes = 512;
  // Billed once per round trip (doorbell + peer pickup).
  uint64_t handoff_cost = 400;
  // Billed per slot spanned beyond the first, each direction.
  uint64_t slot_cost = 40;
  // Simulated cycles burned spinning on a stalled peer before giving up
  // with kTimeout (the ring.stall fault site).
  uint64_t stall_spin_cycles = 2000;
};

// A Transport over a pair of SharedMemoryRings bound to `server`. Same
// ServeFn contract as the port/stream transports, so it drops into Channel
// (retry/backoff, batching, fallback) unchanged.
std::unique_ptr<Transport> MakeRingTransport(ServeFn server, RingConfig config = RingConfig());

}  // namespace omos

#endif  // OMOS_SRC_IPC_RING_TRANSPORT_H_

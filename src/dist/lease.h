#ifndef AUTOFP_DIST_LEASE_H_
#define AUTOFP_DIST_LEASE_H_

/// The coordinator's lease bookkeeping (see DESIGN.md "Distributed
/// search"), kept free of processes and sockets so the state machine is
/// unit-testable: a Lease grants one worker responsibility for a batch of
/// round slots until a deadline (the coordinator leases one slot at a
/// time; the table accepts any count); results are accepted only under the
/// lease's (id, generation) stamp, so answers from a revoked straggler
/// arriving after re-lease are discarded instead of double-counted.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace autofp {

/// One outstanding lease.
struct Lease {
  uint64_t id = 0;
  /// Monotonic stamp across all leases ever issued; a result must match
  /// both id and generation to be accepted.
  uint64_t generation = 0;
  int worker_index = -1;
  /// Round-slot indices this lease covers (indices into the caller's
  /// request/result vectors), and which of them have been answered.
  std::vector<size_t> slots;
  std::vector<bool> done;
  /// Absolute expiry on the coordinator's monotonic clock (seconds).
  double deadline = 0.0;
  /// Times this batch content has been leased (this lease included).
  int batch_attempts = 1;

  /// Slots not yet answered — what gets re-leased after revocation.
  std::vector<size_t> RemainingSlots() const;
  bool AllDone() const;
};

/// Owns every outstanding lease. Single-threaded (the coordinator event
/// loop); all mutation goes through Issue/AcceptResult/Release/Revoke.
class LeaseTable {
 public:
  /// Issues a new lease over `slots` to `worker_index`, expiring at
  /// `deadline`. Returns a reference valid until the next mutation.
  const Lease& Issue(std::vector<size_t> slots, int worker_index,
                     double deadline, int batch_attempts);

  /// The lease with `id`, or nullptr.
  const Lease* Find(uint64_t id) const;

  /// Accepts one result: marks `offset` (an index into the lease's slot
  /// vector) done and returns the round slot it answers. Returns nullopt
  /// for anything stale — unknown lease, generation mismatch, offset out
  /// of range, or a slot already answered.
  std::optional<size_t> AcceptResult(uint64_t id, uint64_t generation,
                                     uint32_t offset);

  /// Removes and returns the lease on a worker's LEASE_DONE. Stale
  /// (id, generation) pairs return nullopt and change nothing.
  std::optional<Lease> Release(uint64_t id, uint64_t generation);

  /// Forcibly removes and returns the lease (deadline expiry, worker
  /// death, corrupt frames) regardless of generation.
  std::optional<Lease> Revoke(uint64_t id);

  /// Leases whose deadline has passed at `now`.
  std::vector<uint64_t> ExpiredLeases(double now) const;

  /// Earliest deadline among active leases (the coordinator's poll
  /// timeout bound), or nullopt when no lease is outstanding.
  std::optional<double> NextDeadline() const;

  size_t active() const { return leases_.size(); }
  uint64_t leases_issued() const { return next_id_ - 1; }

 private:
  uint64_t next_id_ = 1;
  uint64_t next_generation_ = 1;
  std::unordered_map<uint64_t, Lease> leases_;
};

}  // namespace autofp

#endif  // AUTOFP_DIST_LEASE_H_

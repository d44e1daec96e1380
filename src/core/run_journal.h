#ifndef AUTOFP_CORE_RUN_JOURNAL_H_
#define AUTOFP_CORE_RUN_JOURNAL_H_

/// Durable, resumable search runs (see DESIGN.md "Durable runs and crash
/// recovery"). A RunJournalWriter appends one fsync'd, CRC-protected
/// record per completed evaluator outcome to an append-only file; after a
/// crash, ReadRunJournal recovers every intact record (tolerating a torn
/// tail) and a RunJournalReplay serves the recorded outcomes back to
/// SearchContext, which re-runs the search deterministically and replays
/// instead of re-evaluating. No per-algorithm state is serialized: because
/// every evaluation is a pure function of its EvalRequest (PR 2), the
/// journal of outcomes is a complete checkpoint for all 15 algorithms.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evaluator.h"
#include "data/dataset.h"
#include "util/status.h"

namespace autofp {

struct SearchOptions;  // core/search_framework.h

/// Journal file format version; bumped on any layout change. A reader
/// never guesses at an unknown layout: version mismatch is a typed error.
inline constexpr uint32_t kRunJournalVersion = 1;

/// Process exit code used by the deterministic crash point (see
/// RunJournalOptions::crash_after_appends) so harnesses can distinguish an
/// injected crash from a real failure.
inline constexpr int kCrashPointExitCode = 86;

/// Fingerprint of the dataset a journal belongs to: name, shape, class
/// count and every feature/label byte. Resuming against a different
/// dataset is rejected (the recorded outcomes would be meaningless).
uint64_t DatasetFingerprint(const Dataset& dataset);

/// Fingerprint of the determinism-relevant SearchOptions fields: seed,
/// budget axes and retry policy. num_threads, num_workers and
/// cache_bytes are deliberately excluded — history is thread-count-,
/// worker-count- and cache-invariant, so a run may be resumed at a
/// different thread or worker count. fault_injection is left out so
/// existing journals keep their fingerprint; a caller that injects folds
/// its config in itself, as the CLI's configuration fingerprint does.
uint64_t SearchOptionsFingerprint(const SearchOptions& options);

/// Why a journal could not be opened/validated. kNone means success.
enum class JournalError : int {
  kNone = 0,
  /// The file could not be read at all.
  kIoError,
  /// The file does not start with the journal magic (not a journal, or
  /// the header itself was torn).
  kBadMagic,
  /// The header is a journal but a different format version.
  kVersionMismatch,
  /// The header checksum does not match its content.
  kCorruptHeader,
  /// A record before the tail fails its CRC or is internally inconsistent,
  /// or any record declares an implausibly large length (a torn append
  /// leaves a short length field, never a garbage one) — corruption, not a
  /// torn tail; the journal is rejected rather than silently truncated.
  kCorruptRecord,
  /// Header fingerprint does not match the resuming run's SearchOptions.
  kOptionsMismatch,
  /// Header fingerprint does not match the resuming run's dataset.
  kDatasetMismatch,
};

/// Human-readable name ("CorruptRecord" etc.; "OK" for kNone).
const char* JournalErrorName(JournalError error);

/// Versioned journal header, written once at creation.
struct JournalHeader {
  uint32_t version = kRunJournalVersion;
  uint64_t options_fingerprint = 0;
  uint64_t dataset_fingerprint = 0;
  /// Free-form run description (informational only, CRC-protected).
  std::string meta;
};

/// One journaled evaluator outcome. `seed` is the first-attempt request
/// seed (the request's identity under EvalRequest::DeriveSeed); `attempts`
/// counts evaluator attempts including retries; `elapsed_seconds` is the
/// wall-clock the outcome consumed, charged back to the budget on replay.
struct JournalRecord {
  std::string pipeline;  ///< PipelineSpec::ToString() (parseable back).
  double budget_fraction = 1.0;
  uint64_t seed = 0;
  double accuracy = 0.0;
  EvalFailure failure = EvalFailure::kNone;
  int status_code = 0;  ///< StatusCode of Evaluation::status.
  std::string status_message;
  int attempts = 1;
  double elapsed_seconds = 0.0;
  double prep_seconds = 0.0;
  double train_seconds = 0.0;
};

/// Builds the journal record for a completed evaluator outcome.
/// `request_seed` must be the first-attempt seed, `elapsed_seconds` the
/// wall-clock charged to this outcome.
JournalRecord MakeJournalRecord(const Evaluation& evaluation,
                                uint64_t request_seed,
                                double elapsed_seconds);

/// The record payload codec, exposed so the distributed wire protocol
/// (dist/wire.h) ships evaluator outcomes in exactly the journal's
/// encoding — one serialization of an outcome, whether it crosses a
/// process boundary or lands on disk. Decode returns false on any layout
/// mismatch or trailing bytes.
std::string EncodeJournalRecordPayload(const JournalRecord& record);
bool DecodeJournalRecordPayload(const char* data, size_t size,
                                JournalRecord* record);

/// Reconstructs the Evaluation a record describes (pipeline re-parsed,
/// status re-typed). Aborts on an unparseable pipeline string — records
/// are validated by CRC before they get here, so that is a version bug,
/// not user input.
Evaluation EvaluationFromRecord(const JournalRecord& record);

/// Outcome of reading a journal file. On success (`ok()`), `records`
/// holds every intact record in append order; a torn tail (an incomplete
/// or partially written final record — the expected state after a crash)
/// is dropped and counted in `dropped_tail_bytes`, never an error.
struct JournalReadResult {
  JournalError error = JournalError::kNone;
  Status status;  ///< detail message; OK iff error == kNone.
  JournalHeader header;
  std::vector<JournalRecord> records;
  size_t dropped_tail_bytes = 0;

  bool ok() const { return error == JournalError::kNone; }
};

/// Reads and validates `path`. Structural errors (bad magic, version or
/// header mismatch, mid-file corruption) are typed via JournalError;
/// fingerprint validation against the resuming run is separate
/// (ValidateJournalHeader) so tools can inspect foreign journals.
JournalReadResult ReadRunJournal(const std::string& path);

/// Canonical, machine-comparable listing of a journal read: the header
/// fields, the record count and one line per record. Timing fields are
/// deliberately omitted: they are wall-clock noise, and everything listed
/// must be byte-identical between runs of one configuration at any thread
/// count, worker count, resume point or SIMD path (`autofp
/// --dump-journal` prints it; tests/test_exactness.cc compares it).
std::string JournalListing(const JournalReadResult& read);

/// Checks a journal header against the fingerprints of the run about to
/// resume. Returns kNone when compatible; kOptionsMismatch /
/// kDatasetMismatch (with detail in `*detail` when non-null) otherwise.
JournalError ValidateJournalHeader(const JournalHeader& header,
                                   uint64_t options_fingerprint,
                                   uint64_t dataset_fingerprint,
                                   Status* detail = nullptr);

/// Writer configuration.
struct RunJournalOptions {
  std::string meta;  ///< informational header text.
  /// Deterministic crash point for the crash-injection harness: when
  /// > 0, the process hard-exits (std::_Exit(kCrashPointExitCode),
  /// no destructors — a simulated crash) immediately after append number
  /// `crash_after_appends` (1-based) reaches the disk. <= 0 disables.
  int crash_after_appends = -1;
  /// fsync after every record (the durability guarantee). Disable only
  /// for overhead measurement.
  bool fsync_each_record = true;
};

/// Append-only, fsync'd write-ahead journal of evaluator outcomes. Not
/// thread-safe: SearchContext appends from the coordinating thread only
/// (worker threads never touch the journal).
class RunJournalWriter {
 public:
  /// Creates/truncates `path` and writes the versioned header.
  static Result<std::unique_ptr<RunJournalWriter>> Create(
      const std::string& path, uint64_t options_fingerprint,
      uint64_t dataset_fingerprint, const RunJournalOptions& options = {});

  /// Opens an existing, already-validated journal for appending (resume).
  /// The caller must have read it with ReadRunJournal first; the file is
  /// truncated to `valid_bytes` (the extent of intact content) so a torn
  /// tail is physically removed before new records follow it.
  static Result<std::unique_ptr<RunJournalWriter>> OpenForAppend(
      const std::string& path, const RunJournalOptions& options = {});

  ~RunJournalWriter();
  RunJournalWriter(const RunJournalWriter&) = delete;
  RunJournalWriter& operator=(const RunJournalWriter&) = delete;

  /// Appends one record (single write + fsync). On success the record is
  /// durable before control returns — a crash afterwards loses nothing.
  Status Append(const JournalRecord& record);

  long num_appends() const { return num_appends_; }
  const std::string& path() const { return path_; }

 private:
  RunJournalWriter(int fd, std::string path, const RunJournalOptions& options);

  int fd_ = -1;
  std::string path_;
  RunJournalOptions options_;
  long num_appends_ = 0;
};

/// Serves recorded outcomes during a resumed run. Outcomes are keyed by
/// request identity (pipeline key, budget fraction) and served FIFO per
/// key, so the deterministic re-run consumes exactly the sequence the
/// original run produced regardless of batch boundaries. kDeadlineExceeded
/// records are deliberately not replayable (a wall-clock property of the
/// original machine/moment, mirroring the result memo's rule) and are
/// dropped at construction; those evaluations re-run live.
class RunJournalReplay {
 public:
  explicit RunJournalReplay(const std::vector<JournalRecord>& records);

  /// Takes the next recorded outcome for (pipeline key, fraction), or
  /// nullopt when the journal has nothing (left) for that identity.
  std::optional<JournalRecord> Take(const std::string& pipeline_key,
                                    double budget_fraction);

  /// Records not yet consumed (0 once the resumed run caught up).
  size_t remaining() const { return remaining_; }
  /// Deadline-failure records dropped at construction (re-run live).
  size_t dropped_deadline_records() const { return dropped_deadline_; }

 private:
  static std::string SlotKey(const std::string& pipeline_key,
                             double budget_fraction);

  std::unordered_map<std::string, std::deque<JournalRecord>> by_key_;
  size_t remaining_ = 0;
  size_t dropped_deadline_ = 0;
};

}  // namespace autofp

#endif  // AUTOFP_CORE_RUN_JOURNAL_H_

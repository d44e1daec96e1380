#include "core/run_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/search_framework.h"
#include "preprocess/pipeline_parse.h"
#include "util/checksum.h"
#include "util/fs.h"

namespace autofp {
namespace {

constexpr char kMagic[4] = {'A', 'F', 'P', 'J'};
// Upper bound on one record's payload; a "length" beyond it mid-file is
// corruption, not a real record (pipeline strings are tiny).
constexpr uint32_t kMaxRecordPayload = 1u << 24;

// Fixed-width append/read helpers. The format is host-endian: journals
// are machine-local crash-recovery state, not interchange files.
template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendString(std::string* out, const std::string& value) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

// Cursor over a byte range; Read* return false on exhaustion.
struct ByteReader {
  const char* data;
  size_t size;
  size_t pos = 0;

  template <typename T>
  bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size - pos < sizeof(T)) return false;
    std::memcpy(value, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool ReadString(std::string* value) {
    uint32_t length = 0;
    if (!ReadPod(&length)) return false;
    if (size - pos < length) return false;
    value->assign(data + pos, length);
    pos += length;
    return true;
  }
};

std::string EncodeHeader(const JournalHeader& header) {
  std::string body;
  body.append(kMagic, sizeof(kMagic));
  AppendPod<uint32_t>(&body, header.version);
  AppendPod<uint64_t>(&body, header.options_fingerprint);
  AppendPod<uint64_t>(&body, header.dataset_fingerprint);
  AppendString(&body, header.meta);
  AppendPod<uint32_t>(&body, Crc32(body.data(), body.size()));
  return body;
}

// Writes the whole buffer, restarting on EINTR and short writes: ::write
// may land only a prefix (signal, near-full disk), and treating that as
// all-or-nothing would report an error while leaving a torn tail behind a
// still-running process.
bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t written = ::write(fd, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<size_t>(written);
  }
  return true;
}

JournalReadResult ReadError(JournalError error, std::string message) {
  JournalReadResult result;
  result.error = error;
  result.status = Status::IoError(std::move(message));
  return result;
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  uint64_t hash = Fnv1a64(dataset.name.data(), dataset.name.size());
  hash = HashCombine(hash, dataset.num_rows());
  hash = HashCombine(hash, dataset.num_cols());
  hash = HashCombine(hash, static_cast<uint64_t>(dataset.num_classes));
  for (size_t r = 0; r < dataset.features.rows(); ++r) {
    for (size_t c = 0; c < dataset.features.cols(); ++c) {
      hash = HashCombine(hash, std::bit_cast<uint64_t>(dataset.features(r, c)));
    }
  }
  for (int label : dataset.labels) {
    hash = HashCombine(hash, static_cast<uint64_t>(label));
  }
  return hash;
}

uint64_t SearchOptionsFingerprint(const SearchOptions& options) {
  uint64_t hash = Fnv1a64("SearchOptions", 13);
  hash = HashCombine(hash, options.seed);
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options.budget.max_evaluations));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(options.budget.max_seconds));
  hash = HashCombine(hash,
                     std::bit_cast<uint64_t>(options.budget.max_eval_seconds));
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options.fault_policy.max_retries));
  // Once the quarantine switch, which was always on; kept so journals
  // written before its removal still resume.
  hash = HashCombine(hash, 1);
  return hash;
}

const char* JournalErrorName(JournalError error) {
  switch (error) {
    case JournalError::kNone:
      return "OK";
    case JournalError::kIoError:
      return "IoError";
    case JournalError::kBadMagic:
      return "BadMagic";
    case JournalError::kVersionMismatch:
      return "VersionMismatch";
    case JournalError::kCorruptHeader:
      return "CorruptHeader";
    case JournalError::kCorruptRecord:
      return "CorruptRecord";
    case JournalError::kOptionsMismatch:
      return "OptionsMismatch";
    case JournalError::kDatasetMismatch:
      return "DatasetMismatch";
  }
  return "Unknown";
}

std::string EncodeJournalRecordPayload(const JournalRecord& record) {
  std::string payload;
  AppendPod<double>(&payload, record.accuracy);
  AppendPod<double>(&payload, record.budget_fraction);
  AppendPod<uint64_t>(&payload, record.seed);
  AppendPod<double>(&payload, record.elapsed_seconds);
  AppendPod<double>(&payload, record.prep_seconds);
  AppendPod<double>(&payload, record.train_seconds);
  AppendPod<int32_t>(&payload, static_cast<int32_t>(record.failure));
  AppendPod<int32_t>(&payload, record.attempts);
  AppendPod<int32_t>(&payload, record.status_code);
  AppendString(&payload, record.pipeline);
  AppendString(&payload, record.status_message);
  return payload;
}

bool DecodeJournalRecordPayload(const char* data, size_t size,
                                JournalRecord* record) {
  ByteReader reader{data, size};
  int32_t failure = 0, attempts = 0, status_code = 0;
  if (!reader.ReadPod(&record->accuracy) ||
      !reader.ReadPod(&record->budget_fraction) ||
      !reader.ReadPod(&record->seed) ||
      !reader.ReadPod(&record->elapsed_seconds) ||
      !reader.ReadPod(&record->prep_seconds) ||
      !reader.ReadPod(&record->train_seconds) || !reader.ReadPod(&failure) ||
      !reader.ReadPod(&attempts) || !reader.ReadPod(&status_code) ||
      !reader.ReadString(&record->pipeline) ||
      !reader.ReadString(&record->status_message)) {
    return false;
  }
  record->failure = static_cast<EvalFailure>(failure);
  record->attempts = attempts;
  record->status_code = status_code;
  return reader.pos == size;
}

JournalRecord MakeJournalRecord(const Evaluation& evaluation,
                                uint64_t request_seed,
                                double elapsed_seconds) {
  JournalRecord record;
  record.pipeline = evaluation.pipeline.ToString();
  record.budget_fraction = evaluation.budget_fraction;
  record.seed = request_seed;
  record.accuracy = evaluation.accuracy;
  record.failure = evaluation.failure;
  record.status_code = static_cast<int>(evaluation.status.code());
  record.status_message = evaluation.status.message();
  record.attempts = evaluation.attempts;
  record.elapsed_seconds = elapsed_seconds;
  record.prep_seconds = evaluation.timing.prep_seconds;
  record.train_seconds = evaluation.timing.train_seconds;
  return record;
}

Evaluation EvaluationFromRecord(const JournalRecord& record) {
  Evaluation evaluation;
  Result<PipelineSpec> pipeline = ParsePipelineSpec(record.pipeline);
  AUTOFP_CHECK(pipeline.ok())
      << "journal record holds unparseable pipeline '" << record.pipeline
      << "': " << pipeline.status().ToString();
  evaluation.pipeline = pipeline.value();
  evaluation.budget_fraction = record.budget_fraction;
  evaluation.accuracy = record.accuracy;
  evaluation.failure = record.failure;
  evaluation.attempts = record.attempts;
  evaluation.timing.prep_seconds = record.prep_seconds;
  evaluation.timing.train_seconds = record.train_seconds;
  if (record.status_code != static_cast<int>(StatusCode::kOk)) {
    evaluation.status = Status(static_cast<StatusCode>(record.status_code),
                               record.status_message);
  }
  return evaluation;
}

JournalReadResult ReadRunJournal(const std::string& path) {
  std::string bytes;
  Status read = ReadFileBytes(path, &bytes);
  if (!read.ok()) {
    return ReadError(JournalError::kIoError, "journal: " + read.message());
  }

  JournalReadResult result;
  ByteReader reader{bytes.data(), bytes.size()};

  // Header: magic, version, fingerprints, meta, CRC over all of it.
  char magic[4];
  if (!reader.ReadPod(&magic) || std::memcmp(magic, kMagic, 4) != 0) {
    return ReadError(JournalError::kBadMagic,
                     "'" + path + "' is not a run journal (bad magic)");
  }
  if (!reader.ReadPod(&result.header.version)) {
    return ReadError(JournalError::kCorruptHeader,
                     "journal header truncated in '" + path + "'");
  }
  if (result.header.version != kRunJournalVersion) {
    JournalReadResult mismatch;
    mismatch.header.version = result.header.version;
    mismatch.error = JournalError::kVersionMismatch;
    mismatch.status = Status::IoError(
        "journal version " + std::to_string(result.header.version) +
        " != supported " + std::to_string(kRunJournalVersion));
    return mismatch;
  }
  if (!reader.ReadPod(&result.header.options_fingerprint) ||
      !reader.ReadPod(&result.header.dataset_fingerprint) ||
      !reader.ReadString(&result.header.meta)) {
    return ReadError(JournalError::kCorruptHeader,
                     "journal header truncated in '" + path + "'");
  }
  uint32_t expected_crc = Crc32(bytes.data(), reader.pos);
  uint32_t header_crc = 0;
  if (!reader.ReadPod(&header_crc) || header_crc != expected_crc) {
    return ReadError(JournalError::kCorruptHeader,
                     "journal header checksum mismatch in '" + path + "'");
  }

  // Records: [u32 payload_len][payload][u32 crc]. Anything unreadable at
  // the very end of the file is a torn tail (the expected post-crash
  // state): dropped, counted, not an error. The same defect *before* the
  // end means mid-file corruption and rejects the journal, because record
  // boundaries cannot be trusted past it.
  while (reader.pos < bytes.size()) {
    const size_t record_start = reader.pos;
    auto torn_tail = [&]() {
      result.dropped_tail_bytes = bytes.size() - record_start;
      reader.pos = bytes.size();
    };
    uint32_t payload_length = 0;
    if (!reader.ReadPod(&payload_length)) {
      torn_tail();
      break;
    }
    if (payload_length > kMaxRecordPayload) {
      // A torn append leaves a prefix of valid bytes, so it can shorten
      // the length field (caught above) but never fill all four bytes
      // with an implausible value — that is real corruption. Classifying
      // it as a torn tail would silently drop every intact record after
      // the damage while ok() stays true, so reject the journal instead.
      JournalReadResult corrupt;
      corrupt.header = result.header;
      corrupt.error = JournalError::kCorruptRecord;
      corrupt.status = Status::IoError(
          "journal record " + std::to_string(result.records.size()) +
          " declares an implausible payload length (" +
          std::to_string(payload_length) + " bytes) in '" + path + "'");
      return corrupt;
    }
    const size_t available = bytes.size() - reader.pos;
    if (available < static_cast<size_t>(payload_length) + sizeof(uint32_t)) {
      // The declared extent runs past EOF: a record that never finished
      // being written — the expected torn tail, bounded by this one
      // record's extent.
      torn_tail();
      break;
    }
    const char* payload = bytes.data() + reader.pos;
    reader.pos += payload_length;
    uint32_t stored_crc = 0;
    reader.ReadPod(&stored_crc);  // length checked above.
    const bool at_tail = reader.pos == bytes.size();
    JournalRecord record;
    if (Crc32(payload, payload_length) != stored_crc ||
        !DecodeJournalRecordPayload(payload, payload_length, &record)) {
      if (at_tail) {
        // Torn final record (partial overwrite inside its extent).
        torn_tail();
        break;
      }
      JournalReadResult corrupt;
      corrupt.header = result.header;
      corrupt.error = JournalError::kCorruptRecord;
      corrupt.status = Status::IoError(
          "journal record " + std::to_string(result.records.size()) +
          " corrupt (CRC/layout mismatch) before end of '" + path + "'");
      return corrupt;
    }
    result.records.push_back(std::move(record));
  }
  return result;
}

std::string JournalListing(const JournalReadResult& read) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "journal version %u\noptions_fp %016" PRIx64
                " dataset_fp %016" PRIx64 "\n",
                read.header.version, read.header.options_fingerprint,
                read.header.dataset_fingerprint);
  std::string out = line;
  out += "meta " + read.header.meta + "\n";
  out += "records " + std::to_string(read.records.size()) + "\n";
  for (size_t i = 0; i < read.records.size(); ++i) {
    const JournalRecord& record = read.records[i];
    std::snprintf(line, sizeof(line),
                  "%06zu seed=%016" PRIx64
                  " frac=%.17g acc=%.17g failure=%s attempts=%d | ",
                  i, record.seed, record.budget_fraction, record.accuracy,
                  EvalFailureName(record.failure), record.attempts);
    out += line;
    out += record.pipeline + "\n";
  }
  return out;
}

JournalError ValidateJournalHeader(const JournalHeader& header,
                                   uint64_t options_fingerprint,
                                   uint64_t dataset_fingerprint,
                                   Status* detail) {
  if (header.dataset_fingerprint != dataset_fingerprint) {
    if (detail != nullptr) {
      *detail = Status::InvalidArgument(
          "journal was recorded against a different dataset "
          "(fingerprint mismatch)");
    }
    return JournalError::kDatasetMismatch;
  }
  if (header.options_fingerprint != options_fingerprint) {
    if (detail != nullptr) {
      *detail = Status::InvalidArgument(
          "journal was recorded under different search options "
          "(seed/budget/policy fingerprint mismatch)");
    }
    return JournalError::kOptionsMismatch;
  }
  return JournalError::kNone;
}

RunJournalWriter::RunJournalWriter(int fd, std::string path,
                                   const RunJournalOptions& options)
    : fd_(fd), path_(std::move(path)), options_(options) {}

RunJournalWriter::~RunJournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<RunJournalWriter>> RunJournalWriter::Create(
    const std::string& path, uint64_t options_fingerprint,
    uint64_t dataset_fingerprint, const RunJournalOptions& options) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create journal '" + path +
                           "': " + std::strerror(errno));
  }
  JournalHeader header;
  header.options_fingerprint = options_fingerprint;
  header.dataset_fingerprint = dataset_fingerprint;
  header.meta = options.meta;
  std::string bytes = EncodeHeader(header);
  if (!WriteAll(fd, bytes.data(), bytes.size())) {
    ::close(fd);
    return Status::IoError("cannot write journal header to '" + path +
                           "': " + std::strerror(errno));
  }
  if (options.fsync_each_record) {
    ::fsync(fd);
    // The header fsync above persists the file's *content*; its
    // directory entry lives in the parent directory and needs its own
    // fsync, or a machine crash (not just a process crash) right after
    // creation can lose the freshly created journal entirely.
    Status dir_synced = FsyncParentDirectory(path);
    if (!dir_synced.ok()) {
      ::close(fd);
      return dir_synced;
    }
  }
  return std::unique_ptr<RunJournalWriter>(
      new RunJournalWriter(fd, path, options));
}

Result<std::unique_ptr<RunJournalWriter>> RunJournalWriter::OpenForAppend(
    const std::string& path, const RunJournalOptions& options) {
  // Re-read to find the intact extent, then physically drop any torn tail
  // so new records never follow garbage bytes.
  JournalReadResult existing = ReadRunJournal(path);
  if (!existing.ok()) {
    return Status::IoError("cannot append to journal '" + path +
                           "': " + std::string(JournalErrorName(existing.error)) +
                           ": " + existing.status.message());
  }
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IoError("cannot open journal '" + path +
                           "' for append: " + std::strerror(errno));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::IoError("cannot seek to end of journal '" + path +
                           "': " + std::strerror(errno));
  }
  if (existing.dropped_tail_bytes > 0) {
    end -= static_cast<off_t>(existing.dropped_tail_bytes);
    if (::ftruncate(fd, end) != 0 || ::lseek(fd, end, SEEK_SET) < 0) {
      ::close(fd);
      return Status::IoError("cannot drop torn tail of journal '" + path +
                             "': " + std::strerror(errno));
    }
  }
  return std::unique_ptr<RunJournalWriter>(
      new RunJournalWriter(fd, path, options));
}

Status RunJournalWriter::Append(const JournalRecord& record) {
  std::string payload = EncodeJournalRecordPayload(record);
  std::string bytes;
  bytes.reserve(payload.size() + 2 * sizeof(uint32_t));
  AppendPod<uint32_t>(&bytes, static_cast<uint32_t>(payload.size()));
  bytes.append(payload);
  AppendPod<uint32_t>(&bytes, Crc32(payload.data(), payload.size()));
  if (!WriteAll(fd_, bytes.data(), bytes.size())) {
    return Status::IoError("journal append to '" + path_ +
                           "' failed: " + std::strerror(errno));
  }
  if (options_.fsync_each_record) ::fsync(fd_);
  ++num_appends_;
  if (options_.crash_after_appends > 0 &&
      num_appends_ == options_.crash_after_appends) {
    // Deterministic crash point: the record above is durable, everything
    // else (search state, buffers, destructors) is lost — exactly what a
    // kill -9 at this instant would leave behind.
    std::_Exit(kCrashPointExitCode);
  }
  return Status::OK();
}

RunJournalReplay::RunJournalReplay(const std::vector<JournalRecord>& records) {
  for (const JournalRecord& record : records) {
    if (record.failure == EvalFailure::kDeadlineExceeded) {
      ++dropped_deadline_;
      continue;
    }
    by_key_[SlotKey(record.pipeline, record.budget_fraction)].push_back(
        record);
    ++remaining_;
  }
}

std::string RunJournalReplay::SlotKey(const std::string& pipeline_key,
                                      double budget_fraction) {
  return pipeline_key + '#' +
         std::to_string(std::bit_cast<uint64_t>(budget_fraction));
}

std::optional<JournalRecord> RunJournalReplay::Take(
    const std::string& pipeline_key, double budget_fraction) {
  auto slot = by_key_.find(SlotKey(pipeline_key, budget_fraction));
  if (slot == by_key_.end() || slot->second.empty()) return std::nullopt;
  JournalRecord record = std::move(slot->second.front());
  slot->second.pop_front();
  --remaining_;
  return record;
}

}  // namespace autofp

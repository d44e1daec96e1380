#include "dist/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/run_journal.h"

namespace autofp {
namespace {

/// Re-spawns allowed beyond the initial fleet of `num_workers` before the
/// coordinator stops replacing dead workers: generous, so that only a
/// fleet that keeps dying falls back to local evaluation.
int RespawnBudget(int num_workers) { return 64 + 16 * num_workers; }

/// Seconds Shutdown() waits for workers to exit before SIGKILL.
constexpr double kShutdownGraceSeconds = 2.0;

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorkerSpawner ExecWorkerSpawner(std::vector<std::string> argv_prefix) {
  return [argv_prefix = std::move(argv_prefix)](
             int worker_index, int child_fd) -> Result<pid_t> {
    std::vector<std::string> args = argv_prefix;
    args.push_back("--worker-fd");
    args.push_back(std::to_string(child_fd));
    args.push_back("--worker-index");
    args.push_back(std::to_string(worker_index));
    pid_t pid = ::fork();
    if (pid < 0) {
      return Status::Internal(std::string("fork failed: ") +
                              std::strerror(errno));
    }
    if (pid == 0) {
      // Child: exec the worker entrypoint. Sibling coordinator pipes are
      // close-on-exec; only child_fd survives into the worker image.
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);  // exec failed; the coordinator sees EOF pre-HELLO.
    }
    return pid;
  };
}

WorkerSpawner InProcessWorkerSpawner(
    std::function<int(int fd, int worker_index)> worker_main) {
  return [worker_main = std::move(worker_main)](
             int worker_index, int child_fd) -> Result<pid_t> {
    pid_t pid = ::fork();
    if (pid < 0) {
      return Status::Internal(std::string("fork failed: ") +
                              std::strerror(errno));
    }
    if (pid == 0) {
      // No exec, so close-on-exec flags never fire: drop every inherited
      // fd except our own pipe by hand, or sibling pipes would keep each
      // other's EOF detection (and the worker's orphan detection) from
      // ever triggering.
      for (int fd = 3; fd < 1024; ++fd) {
        if (fd != child_fd) ::close(fd);
      }
      std::_Exit(worker_main(child_fd, worker_index));
    }
    return pid;
  };
}

DistributedEvaluator::DistributedEvaluator(EvaluatorInterface* local,
                                           WorkerSpawner spawner,
                                           DistOptions options)
    : local_(local), spawner_(std::move(spawner)), options_(options) {
  options_.num_workers = std::max(1, options_.num_workers);
  respawn_budget_ =
      options_.num_workers + RespawnBudget(options_.num_workers);
  workers_.resize(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) workers_[i].index = i;
}

DistributedEvaluator::~DistributedEvaluator() { Shutdown(); }

void DistributedEvaluator::Start() {
  if (started_) return;
  started_ = true;
  for (int i = 0; i < options_.num_workers; ++i) {
    if (!SpawnWorker(i)) ++consecutive_spawn_failures_;
  }
}

bool DistributedEvaluator::SpawnWorker(int index) {
  if (respawn_budget_ <= 0) return false;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  // Coordinator end: close-on-exec (workers must not inherit each
  // other's pipes) and nonblocking (the event loop drains it).
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  Result<pid_t> spawned = spawner_(index, fds[1]);
  ::close(fds[1]);
  if (!spawned.ok()) {
    ::close(fds[0]);
    return false;
  }
  Worker& worker = workers_[static_cast<size_t>(index)];
  worker.pid = spawned.value();
  worker.fd = fds[0];
  worker.ready = false;
  worker.lease_id = 0;
  worker.decoder = std::make_unique<FrameDecoder>();
  ++stats_.workers_spawned;
  --respawn_budget_;
  return true;
}

int DistributedEvaluator::live_workers() const {
  int live = 0;
  for (const Worker& worker : workers_) {
    if (worker.fd >= 0) ++live;
  }
  return live;
}

bool DistributedEvaluator::AnySpawnableWorker() const {
  return !spawning_disabled_ && respawn_budget_ > 0;
}

void DistributedEvaluator::MaintainFleet() {
  if (spawning_disabled_) return;
  for (Worker& worker : workers_) {
    if (worker.fd >= 0) continue;
    if (respawn_budget_ <= 0 ||
        consecutive_spawn_failures_ > 2 * options_.num_workers + 2) {
      spawning_disabled_ = true;
      return;
    }
    if (!SpawnWorker(worker.index)) {
      ++consecutive_spawn_failures_;
      return;  // retried next loop until the counter disables spawning.
    }
  }
}

void DistributedEvaluator::FailWorker(Worker* worker, bool kill,
                                      Round* round) {
  if (worker->fd < 0) return;
  if (!worker->ready) ++consecutive_spawn_failures_;  // died before HELLO.
  if (worker->lease_id != 0) {
    round->queue.push_back({worker->slot, worker->attempts});
    worker->lease_id = 0;
  }
  ::close(worker->fd);
  worker->fd = -1;
  worker->ready = false;
  worker->decoder.reset();
  if (worker->pid > 0) {
    if (kill) ::kill(worker->pid, SIGKILL);
    int status = 0;
    ::waitpid(worker->pid, &status, 0);
    worker->pid = -1;
  }
}

void DistributedEvaluator::ResolveWithoutWorkers(const PendingSlot& pending,
                                                 Round* round) {
  const EvalRequest& request = (*round->requests)[pending.slot];
  if (options_.allow_local_fallback) {
    (*round->results)[pending.slot] = local_->Evaluate(request, &scratch_);
    ++stats_.local_fallback_evals;
  } else {
    (*round->results)[pending.slot] = FailedEvaluation(
        request, EvalFailure::kWorkerLost,
        Status::Internal("distributed lease attempts exhausted"));
    ++stats_.worker_lost_evals;
  }
  --round->remaining;
}

void DistributedEvaluator::AssignLeases(Round* round) {
  auto drain_exhausted = [&] {
    while (!round->queue.empty() &&
           round->queue.front().attempts >= options_.max_lease_attempts) {
      PendingSlot pending = round->queue.front();
      round->queue.pop_front();
      ResolveWithoutWorkers(pending, round);
    }
  };
  drain_exhausted();
  for (Worker& worker : workers_) {
    if (round->queue.empty()) break;
    if (worker.fd < 0 || !worker.ready || worker.lease_id != 0) continue;
    drain_exhausted();
    if (round->queue.empty()) break;
    const PendingSlot pending = round->queue.front();
    round->queue.pop_front();
    worker.lease_id = next_lease_id_++;
    worker.slot = pending.slot;
    worker.attempts = pending.attempts + 1;
    worker.deadline = MonotonicSeconds() + options_.lease_deadline_seconds;
    DistLease message;
    message.lease_id = worker.lease_id;
    message.request = (*round->requests)[pending.slot];
    std::string bytes;
    EncodeLeaseFrame(message, &bytes);
    ++stats_.leases_issued;
    if (pending.attempts > 0) ++stats_.re_leases;
    if (!SendFrameBytes(worker.fd, bytes)) {
      // The worker died between leases: requeue and reap.
      ++stats_.worker_crashes;
      FailWorker(&worker, /*kill=*/false, round);
    }
  }
}

void DistributedEvaluator::HandleFrame(Worker* worker, const Frame& frame,
                                       Round* round) {
  if (frame.type == static_cast<uint8_t>(DistFrameType::kHello)) {
    DistHello hello;
    if (!DecodeHelloFrame(frame, &hello)) {
      ++stats_.corrupt_frame_revocations;
      FailWorker(worker, /*kill=*/true, round);
      return;
    }
    if (options_.expected_dataset_fingerprint != 0 &&
        hello.dataset_fingerprint != options_.expected_dataset_fingerprint) {
      // The worker is evaluating against different data; nothing it
      // returns can be journaled. Refuse it like a failed spawn.
      ++stats_.hello_rejects;
      FailWorker(worker, /*kill=*/true, round);
      return;
    }
    worker->ready = true;
    consecutive_spawn_failures_ = 0;
    return;
  }
  if (frame.type == static_cast<uint8_t>(DistFrameType::kResult)) {
    DistResult result;
    if (!DecodeResultFrame(frame, &result)) {
      ++stats_.corrupt_frame_revocations;
      FailWorker(worker, /*kill=*/true, round);
      return;
    }
    if (worker->lease_id == 0 || result.lease_id != worker->lease_id) {
      ++stats_.stale_results;
      return;
    }
    worker->lease_id = 0;
    (*round->results)[worker->slot] = EvaluationFromRecord(result.record);
    --round->remaining;
    return;
  }
  // Any other type from a worker is a protocol violation.
  ++stats_.corrupt_frame_revocations;
  FailWorker(worker, /*kill=*/true, round);
}

void DistributedEvaluator::ReadWorker(Worker* worker, Round* round) {
  bool eof = false;
  for (;;) {
    char buffer[65536];
    ssize_t n = ::read(worker->fd, buffer, sizeof(buffer));
    if (n > 0) {
      worker->decoder->Feed(buffer, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buffer))) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard read error: treat like death.
    break;
  }
  // Drain complete frames first — results a dying worker managed to
  // flush still count (they are correct, and accepting them is cheaper
  // than re-evaluating their slots).
  for (;;) {
    if (worker->fd < 0) return;  // a frame handler already failed it.
    Frame frame;
    ServeError error = ServeError::kNone;
    std::string detail;
    FrameDecoder::Outcome outcome =
        worker->decoder->Next(&frame, &error, &detail);
    if (outcome == FrameDecoder::Outcome::kFrame) {
      HandleFrame(worker, frame, round);
      continue;
    }
    if (outcome == FrameDecoder::Outcome::kBad) {
      ++stats_.corrupt_frame_revocations;
      FailWorker(worker, /*kill=*/true, round);
      return;
    }
    break;  // kNeedMore
  }
  if (eof) {
    ++stats_.worker_crashes;
    FailWorker(worker, /*kill=*/false, round);
  }
}

void DistributedEvaluator::PollWorkers(Round* round) {
  std::vector<struct pollfd> pfds;
  std::vector<int> indices;
  // Wake by the earliest lease deadline, so stragglers expire on time.
  double next_deadline = std::numeric_limits<double>::infinity();
  for (const Worker& worker : workers_) {
    if (worker.fd < 0) continue;  // a dead worker holds no lease.
    struct pollfd pfd;
    pfd.fd = worker.fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    pfds.push_back(pfd);
    indices.push_back(worker.index);
    if (worker.lease_id != 0) {
      next_deadline = std::min(next_deadline, worker.deadline);
    }
  }
  if (pfds.empty()) return;
  int timeout_ms = 100;
  if (std::isfinite(next_deadline)) {
    double wait = (next_deadline - MonotonicSeconds()) * 1000.0;
    timeout_ms = static_cast<int>(
        std::min(200.0, std::max(0.0, wait)));
  }
  int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc <= 0) return;
  for (size_t i = 0; i < pfds.size(); ++i) {
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Worker& worker = workers_[static_cast<size_t>(indices[i])];
    if (worker.fd >= 0) ReadWorker(&worker, round);
  }
}

void DistributedEvaluator::ExpireLeases(Round* round) {
  const double now = MonotonicSeconds();
  for (Worker& worker : workers_) {
    if (worker.lease_id == 0 || worker.deadline > now) continue;
    ++stats_.straggler_revocations;
    // Kill the straggler and requeue its slot: a worker past its
    // deadline cannot be trusted to come back, and a fresh one is one
    // respawn away.
    FailWorker(&worker, /*kill=*/true, round);
  }
}

Evaluation DistributedEvaluator::Evaluate(const EvalRequest& request) {
  return EvaluateAll({request}).front();
}

std::vector<Evaluation> DistributedEvaluator::EvaluateAll(
    const std::vector<EvalRequest>& requests) {
  std::vector<Evaluation> results(requests.size());
  if (requests.empty()) return results;
  if (!started_) Start();

  Round round;
  round.requests = &requests;
  round.results = &results;
  round.remaining = requests.size();
  // One request per lease, in request order: each idle worker pulls the
  // next one, so a round keeps every live worker busy until its tail.
  for (size_t slot = 0; slot < requests.size(); ++slot) {
    round.queue.push_back({slot, 0});
  }

  while (round.remaining > 0) {
    MaintainFleet();
    if (live_workers() == 0 && !AnySpawnableWorker()) {
      // The fleet is gone for good (a dead worker holds no lease):
      // resolve everything in-process.
      while (!round.queue.empty()) {
        PendingSlot pending = round.queue.front();
        round.queue.pop_front();
        ResolveWithoutWorkers(pending, &round);
      }
      continue;
    }
    AssignLeases(&round);
    PollWorkers(&round);
    ExpireLeases(&round);
  }
  return results;
}

void DistributedEvaluator::Shutdown() {
  std::string bytes;
  EncodeShutdownFrame(&bytes);
  for (Worker& worker : workers_) {
    if (worker.fd >= 0) {
      SendFrameBytes(worker.fd, bytes);
      ::close(worker.fd);
      worker.fd = -1;
      worker.ready = false;
      worker.lease_id = 0;
      worker.decoder.reset();
    }
  }
  const double deadline = MonotonicSeconds() + kShutdownGraceSeconds;
  for (Worker& worker : workers_) {
    if (worker.pid <= 0) continue;
    for (;;) {
      int status = 0;
      pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
      if (reaped == worker.pid || (reaped < 0 && errno == ECHILD)) {
        worker.pid = -1;
        break;
      }
      if (MonotonicSeconds() >= deadline) {
        ::kill(worker.pid, SIGKILL);
        ::waitpid(worker.pid, &status, 0);
        worker.pid = -1;
        break;
      }
      ::usleep(20 * 1000);
    }
  }
  spawning_disabled_ = true;  // a shut-down fleet stays down; evaluation
                              // degrades to the local path.
}

}  // namespace autofp

#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace autofp {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl O_NONBLOCK: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

bool IsPredictType(FrameType type) {
  return type == FrameType::kPredictCsv || type == FrameType::kPredictDense;
}

/// `text` as a quoted JSON string.
std::string JsonString(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
      quoted += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      quoted += escaped;
    } else {
      quoted += c;
    }
  }
  return quoted + "\"";
}

}  // namespace

// --- Connection and queue item ----------------------------------------------

struct ServeSocketServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  FrameDecoder decoder;
  std::string outbuf;
  size_t outbuf_sent = 0;
  /// Requests queued whose responses have not yet reached outbuf.
  long inflight = 0;
  /// A connection-fatal protocol error happened: stop reading, flush the
  /// error response, then close.
  bool closing = false;
};

struct ServeSocketServer::Pending {
  /// 0 routes the outcome to the server log instead of a socket (the
  /// internal SIGHUP-reload path).
  uint64_t conn_id = 0;
  ServeRequest request;
  size_t rows = 0;  ///< cached request.rows.rows() for queue accounting.
  /// When true the response was decided at admission (BUSY, malformed
  /// frame, schema mismatch); it rides the queue so responses stay FIFO
  /// per connection, but costs the batcher nothing.
  bool resolved = false;
  ServeResponse ready;
};

// --- Poller: one poll(2) set over the listen socket, wake pipe and peers --

class ServeSocketServer::Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
  };

  void Add(int fd, bool read, bool write) {
    fds_.push_back({fd, Mask(read, write), 0});
  }

  void Update(int fd, bool read, bool write) {
    struct pollfd* entry = Find(fd);
    if (entry != nullptr) entry->events = Mask(read, write);
  }

  void Remove(int fd) {
    struct pollfd* entry = Find(fd);
    if (entry == nullptr) return;
    *entry = fds_.back();
    fds_.pop_back();
  }

  void Wait(int timeout_ms, std::vector<Event>* events) {
    events->clear();
    if (::poll(fds_.data(), fds_.size(), timeout_ms) <= 0) return;
    for (const struct pollfd& p : fds_) {
      if (p.revents == 0) continue;
      Event event;
      event.fd = p.fd;
      // Errors and hangups surface as readable: the next read() reports
      // the close/error and the connection is torn down there.
      event.readable =
          (p.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0;
      event.writable = (p.revents & POLLOUT) != 0;
      events->push_back(event);
    }
  }

 private:
  static short Mask(bool read, bool write) {
    return static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
  }

  struct pollfd* Find(int fd) {
    for (struct pollfd& p : fds_) {
      if (p.fd == fd) return &p;
    }
    return nullptr;
  }

  std::vector<struct pollfd> fds_;
};

// --- Lifecycle --------------------------------------------------------------

ServeSocketServer::ServeSocketServer(ArtifactRegistry* registry,
                                     ServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  AUTOFP_CHECK(registry_ != nullptr);
}

ServeSocketServer::~ServeSocketServer() { Stop(); }

Status ServeSocketServer::Start() {
  AUTOFP_CHECK(!started_) << "Start() called twice";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  auto fail = [this](std::string message) {
    Status status = Status::IoError(std::move(message));
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return status;
  };
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail("not an IPv4 bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind " + options_.host + ":" +
                std::to_string(options_.port) + ": " + std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    return fail(std::string("getsockname: ") + std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, options_.backlog) != 0) {
    return fail(std::string("listen: ") + std::strerror(errno));
  }
  Status nonblocking = SetNonBlocking(listen_fd_);
  if (!nonblocking.ok()) return fail(nonblocking.message());
  if (::pipe(wake_fds_) != 0) {
    return fail(std::string("pipe: ") + std::strerror(errno));
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  poller_ = std::make_unique<Poller>();
  poller_->Add(listen_fd_, /*read=*/true, /*write=*/false);
  poller_->Add(wake_fds_[0], /*read=*/true, /*write=*/false);

  stop_.store(false);
  batcher_done_ = false;
  start_time_ = std::chrono::steady_clock::now();
  io_thread_ = std::thread([this] { IoLoop(); });
  batch_thread_ = std::thread([this] { BatchLoop(); });
  started_ = true;
  return Status::OK();
}

void ServeSocketServer::Stop() {
  if (!started_) return;
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(mutex_);
  }
  work_available_.notify_all();
  WakeIo();
  batch_thread_.join();
  WakeIo();  // batcher_done_ is now visible; make sure the I/O loop looks.
  io_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  poller_.reset();
  started_ = false;
}

void ServeSocketServer::RequestReload() {
  Pending reload;
  reload.conn_id = 0;
  reload.request.type = FrameType::kSwap;
  reload.request.text.clear();  // empty path = reload current
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(reload));
  }
  work_available_.notify_one();
}

ServerCounters ServeSocketServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

std::string ServeSocketServer::StatsJson() const {
  const RegistryInfo info = registry_->Info();
  const ServerCounters c = counters();
  std::string json = "{\"generation\":" + std::to_string(info.generation) +
                     ",\"artifact\":" + JsonString(info.path) +
                     ",\"pipeline\":" + JsonString(info.pipeline) +
                     ",\"model\":" + JsonString(info.model);
  const std::pair<const char*, long> fields[] = {
      {"connections_accepted", c.connections_accepted},
      {"frames_received", c.frames_received},
      {"predict_requests", c.predict_requests},
      {"predict_rows", c.predict_rows},
      {"micro_batches", c.micro_batches},
      {"coalesced_requests", c.coalesced_requests},
      {"busy_shed", c.busy_shed},
      {"protocol_errors", c.protocol_errors},
      {"swaps", c.swaps},
      {"peer_disconnects", c.peer_disconnects}};
  for (const auto& [name, value] : fields) {
    json += ",\"" + std::string(name) + "\":" + std::to_string(value);
  }
  std::shared_ptr<const Predictor> live = registry_->Acquire();
  if (live != nullptr) json += "," + ServeStatsJson(live->stats());
  if (options_.batch_observer != nullptr) {
    const std::string observed = options_.batch_observer->CountersJson();
    if (!observed.empty()) json += "," + observed;
  }
  const std::chrono::duration<double> uptime =
      std::chrono::steady_clock::now() - start_time_;
  char tail[48];
  std::snprintf(tail, sizeof(tail), ",\"uptime_s\":%.6f}", uptime.count());
  return json + tail;
}

void ServeSocketServer::WakeIo() {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
}

// --- I/O thread -------------------------------------------------------------

void ServeSocketServer::IoLoop() {
  std::vector<Poller::Event> events;
  bool listen_closed = false;
  std::chrono::steady_clock::time_point stop_deadline{};
  for (;;) {
    const bool stopping = stop_.load();
    poller_->Wait(stopping ? 10 : 100, &events);
    for (const Poller::Event& event : events) {
      if (event.fd == wake_fds_[0]) {
        char sink[256];
        while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (event.fd == listen_fd_) {
        if (!listen_closed) AcceptNew();
        continue;
      }
      if (event.readable) HandleReadable(event.fd);
      // The connection may have been closed by the read path.
      if (event.writable && connections_.count(event.fd) > 0) {
        HandleWritable(event.fd);
      }
    }
    DrainOutgoing();
    if (!stopping) continue;

    // Graceful drain: stop accepting, let the batcher answer everything
    // queued, flush every connection, then leave (with a grace bound so a
    // peer that never reads cannot wedge Stop()).
    if (!listen_closed) {
      poller_->Remove(listen_fd_);
      listen_closed = true;
      stop_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
    }
    bool flushed = true;
    for (const auto& [fd, conn] : connections_) {
      if (conn.inflight > 0 || conn.outbuf_sent < conn.outbuf.size()) {
        flushed = false;
        break;
      }
    }
    bool queues_empty;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queues_empty = batcher_done_ && outgoing_.empty();
    }
    if ((queues_empty && flushed) ||
        std::chrono::steady_clock::now() >= stop_deadline) {
      break;
    }
  }
  std::vector<int> open_fds;
  open_fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open_fds.push_back(fd);
  for (int fd : open_fds) CloseConnection(fd);
}

void ServeSocketServer::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: poll again.
    }
    SetNonBlocking(fd);
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    Connection conn;
    conn.id = next_conn_id_++;
    conn.fd = fd;
    connections_.emplace(fd, std::move(conn));
    poller_->Add(fd, /*read=*/true, /*write=*/false);
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.connections_accepted;
    }
  }
}

void ServeSocketServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  poller_->Remove(fd);
  ::close(fd);
  connections_.erase(it);
}

void ServeSocketServer::HandleReadable(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection* conn = &it->second;
  if (conn->closing) return;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->decoder.Feed(chunk, static_cast<size_t>(n));
      DrainDecoder(conn);
      if (conn->closing) break;
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    }
    // Peer closed (or hard error). A close mid-frame is a typed protocol
    // error; there is no one left to answer, so it is only counted.
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      if (n == 0 && conn->decoder.HasPartialFrame()) {
        ++counters_.protocol_errors;
      }
      ++counters_.peer_disconnects;
    }
    CloseConnection(fd);
    return;
  }
  UpdateInterest(conn);
}

void ServeSocketServer::DrainDecoder(Connection* conn) {
  Frame frame;
  ServeError error = ServeError::kNone;
  std::string detail;
  while (!conn->closing) {
    const FrameDecoder::Outcome outcome =
        conn->decoder.Next(&frame, &error, &detail);
    if (outcome == FrameDecoder::Outcome::kNeedMore) return;
    if (outcome == FrameDecoder::Outcome::kBad) {
      // The stream is desynced: answer the typed error, then close once
      // every earlier in-flight response has flushed.
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.protocol_errors;
      }
      EnqueueResolved(conn, ServeResponse::Error(error, detail));
      conn->closing = true;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.frames_received;
    }
    Pending item;
    item.conn_id = conn->id;
    const ServeError parse_error =
        ParseRequestFrame(frame, &item.request, &detail);
    if (parse_error != ServeError::kNone) {
      // Well-framed but unusable: typed error, connection keeps going.
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.protocol_errors;
      }
      EnqueueResolved(conn, ServeResponse::Error(parse_error, detail));
      continue;
    }
    if (!IsPredictType(item.request.type)) {
      // Admin frames ride the same FIFO so swap/stats interleave cleanly
      // with predictions.
      ++conn->inflight;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_.push_back(std::move(item));
      }
      work_available_.notify_one();
      continue;
    }
    // Predict admission: fit the rows to the live schema, then apply the
    // queue-depth bound.
    std::shared_ptr<const Predictor> live = registry_->Acquire();
    if (live == nullptr) {
      EnqueueResolved(conn, ServeResponse::Error(ServeError::kUnavailable,
                                                 "no artifact loaded"));
      continue;
    }
    std::string reason;
    if (!FitRowsToSchema(&item.request.rows, live->schema().input_cols,
                         &reason)) {
      EnqueueResolved(
          conn, ServeResponse::Error(ServeError::kSchemaMismatch, reason));
      continue;
    }
    item.rows = item.request.rows.rows();
    bool admitted;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      admitted = pending_rows_ + item.rows <= options_.max_queue_rows;
      if (admitted) {
        pending_rows_ += item.rows;
        pending_.push_back(std::move(item));
      }
    }
    if (!admitted) {
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.busy_shed;
      }
      EnqueueResolved(
          conn,
          ServeResponse::Error(
              ServeError::kBusy,
              "pending queue is past its " +
                  std::to_string(options_.max_queue_rows) + "-row bound"));
      continue;
    }
    ++conn->inflight;
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.predict_requests;
      counters_.predict_rows += static_cast<long>(item.rows);
    }
    work_available_.notify_one();
  }
}

void ServeSocketServer::EnqueueResolved(Connection* conn,
                                        ServeResponse response) {
  // Pre-resolved answers still ride the pending queue: responses must
  // leave in request order even when some were decided at admission.
  Pending item;
  item.conn_id = conn->id;
  item.resolved = true;
  item.ready = std::move(response);
  ++conn->inflight;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(item));
  }
  work_available_.notify_one();
}

void ServeSocketServer::HandleWritable(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  FlushConnection(&it->second);
}

void ServeSocketServer::FlushConnection(Connection* conn) {
  while (conn->outbuf_sent < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->outbuf_sent,
               conn->outbuf.size() - conn->outbuf_sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EPIPE/ECONNRESET: the client went away without reading its
      // responses. MSG_NOSIGNAL (plus the process-wide SIGPIPE ignore)
      // turns that into a typed, counted close instead of a signal.
      if (errno == EPIPE || errno == ECONNRESET) {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.peer_disconnects;
      }
      CloseConnection(conn->fd);
      return;
    }
    conn->outbuf_sent += static_cast<size_t>(n);
  }
  if (conn->outbuf_sent == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outbuf_sent = 0;
    if (conn->closing && conn->inflight == 0) {
      CloseConnection(conn->fd);
      return;
    }
  }
  UpdateInterest(conn);
}

void ServeSocketServer::UpdateInterest(Connection* conn) {
  poller_->Update(conn->fd, /*read=*/!conn->closing,
                  /*write=*/conn->outbuf_sent < conn->outbuf.size());
}

void ServeSocketServer::DrainOutgoing() {
  std::deque<Outgoing> ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ready.swap(outgoing_);
  }
  for (Outgoing& out : ready) {
    // Find the connection by id; it may have closed while the batch ran.
    Connection* conn = nullptr;
    for (auto& [fd, candidate] : connections_) {
      if (candidate.id == out.conn_id) {
        conn = &candidate;
        break;
      }
    }
    if (conn == nullptr) continue;
    conn->outbuf.append(out.bytes);
    --conn->inflight;
    FlushConnection(conn);
  }
}

// --- Batch thread -----------------------------------------------------------

void ServeSocketServer::BatchLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return stop_.load() || !pending_.empty(); });
      if (pending_.empty()) break;  // stop_ and fully drained

      Pending first = std::move(pending_.front());
      pending_.pop_front();
      pending_rows_ -= first.rows;
      if (first.resolved || !IsPredictType(first.request.type)) {
        lock.unlock();
        if (first.resolved) {
          PostResponse(first.conn_id, first.ready);
        } else {
          ExecuteAdmin(first);
        }
        continue;
      }

      // Group commit: take every same-width predict already queued behind
      // the first, up to the row bound, and never wait for more. Under
      // load requests pile up while a batch scores, so batches form
      // without a timer.
      size_t batch_rows = first.rows;
      const size_t cols = first.request.rows.cols();
      batch.push_back(std::move(first));
      while (batch_rows < options_.max_batch_rows && !pending_.empty()) {
        Pending& front = pending_.front();
        if (front.resolved || !IsPredictType(front.request.type) ||
            front.request.rows.cols() != cols) {
          break;
        }
        batch_rows += front.rows;
        pending_rows_ -= front.rows;
        batch.push_back(std::move(front));
        pending_.pop_front();
      }
    }
    ExecuteBatch(std::move(batch));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batcher_done_ = true;
  }
  WakeIo();
}

void ServeSocketServer::ExecuteBatch(std::vector<Pending> batch) {
  // One registry acquisition covers the whole micro-batch: every answer
  // below comes from exactly one artifact, so a concurrent swap can never
  // produce a torn mix within or across the batch's responses.
  std::shared_ptr<const Predictor> predictor = registry_->Acquire();
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.micro_batches;
    if (batch.size() > 1) {
      counters_.coalesced_requests += static_cast<long>(batch.size());
    }
  }
  if (predictor == nullptr) {
    for (const Pending& item : batch) {
      PostResponse(item.conn_id,
                   ServeResponse::Error(ServeError::kUnavailable,
                                        "no artifact loaded"));
    }
    return;
  }
  const Matrix* rows = &batch[0].request.rows;
  if (batch.size() > 1) {
    size_t total_rows = 0;
    for (const Pending& item : batch) total_rows += item.rows;
    batch_scratch_.Resize(total_rows, batch[0].request.rows.cols());
    size_t at = 0;
    for (const Pending& item : batch) {
      const Matrix& part = item.request.rows;
      std::copy(part.Raw(), part.Raw() + part.size(),
                batch_scratch_.RowPtr(at));
      at += item.rows;
    }
    rows = &batch_scratch_;
  }
  ServeResponse scored =
      ExecutePredictRows(*predictor, *rows, options_.shard_rows);
  if (scored.ok() && options_.batch_observer != nullptr) {
    // Batch-thread-synchronous tap: rows/predictions are borrowed for the
    // duration of the call only (rows may alias the reusable scratch).
    options_.batch_observer->OnBatchScored(*rows, scored.predictions,
                                           *predictor);
  }
  if (!scored.ok()) {
    // The whole batch shares one width, so a schema failure (e.g. a swap
    // changed the input width between admission and scoring) applies to
    // every request in it.
    for (const Pending& item : batch) {
      PostResponse(item.conn_id, scored);
    }
    return;
  }
  size_t at = 0;
  for (const Pending& item : batch) {
    ServeResponse part;
    part.type = FrameType::kPredictions;
    part.predictions.assign(scored.predictions.begin() + at,
                            scored.predictions.begin() + at + item.rows);
    at += item.rows;
    PostResponse(item.conn_id, part);
  }
}

void ServeSocketServer::ExecuteAdmin(const Pending& item) {
  switch (item.request.type) {
    case FrameType::kSwap: {
      const Status swapped = item.request.text.empty()
                                 ? registry_->Reload()
                                 : registry_->Swap(item.request.text);
      if (swapped.ok()) {
        {
          std::lock_guard<std::mutex> lock(counters_mutex_);
          ++counters_.swaps;
        }
        const RegistryInfo info = registry_->Info();
        ServeResponse response;
        response.type = FrameType::kSwapped;
        response.message = "swapped generation=" +
                           std::to_string(info.generation) + " pipeline=[" +
                           info.pipeline + "] model=" + info.model +
                           " path=" + info.path;
        if (item.conn_id == 0) {
          std::fprintf(stderr, "reload: %s\n", response.message.c_str());
        } else {
          PostResponse(item.conn_id, response);
        }
        return;
      }
      if (item.conn_id == 0) {
        std::fprintf(stderr, "reload failed: %s\n",
                     swapped.ToString().c_str());
        return;
      }
      PostResponse(item.conn_id,
                   ServeResponse::Error(ServeError::kUnavailable,
                                        swapped.message()));
      return;
    }
    case FrameType::kStats: {
      ServeResponse response;
      response.type = FrameType::kStatsReport;
      response.message = StatsJson();
      PostResponse(item.conn_id, response);
      return;
    }
    case FrameType::kPing: {
      PostResponse(item.conn_id, ServeResponse());
      return;
    }
    default:
      PostResponse(item.conn_id,
                   ServeResponse::Error(ServeError::kBadType,
                                        "unsupported admin request"));
      return;
  }
}

void ServeSocketServer::PostResponse(uint64_t conn_id,
                                     const ServeResponse& response) {
  Outgoing out;
  out.conn_id = conn_id;
  EncodeResponse(response, &out.bytes);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    outgoing_.push_back(std::move(out));
  }
  WakeIo();
}

}  // namespace autofp

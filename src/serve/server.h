// sans serve: a TCP similarity-query server over a SimilarityIndex.
//
// One accept thread poll()s the listening socket; each accepted
// connection becomes a ThreadPool task that answers frames until the
// peer disconnects or the server stops. The index is held behind a
// mutex-protected shared_ptr: request threads copy the pointer per
// request (epoch snapshot), so kReload builds the new index off to the
// side and swaps it in without blocking in-flight queries — the old
// epoch drains naturally as its shared_ptrs release.
//
// Observability lives in a server-private MetricsRegistry (private so
// several servers in one test process report isolated counters):
// per-request-type counters and latency histograms, bytes in/out,
// active connections, errors, index reloads, the TopK work (touched
// columns and zero-fills, summed over queries) and the loaded index's
// posting count and longest posting. kStats reports the
// headline counters over the wire, kMetrics ships the full Prometheus
// text exposition, and Stop() logs a drain summary. Malformed frames
// get an error response (when the stream is still framed) or a
// connection close (when framing itself is lost); the server never
// crashes on client bytes.

#ifndef SANS_SERVE_SERVER_H_
#define SANS_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/similarity_index.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sans {

struct ServerConfig {
  /// Interface to bind; loopback by default.
  std::string host = "127.0.0.1";
  /// Port to listen on; 0 picks an ephemeral port (see Server::port()).
  uint16_t port = 0;
  /// Request worker threads (also the concurrent-connection limit).
  int num_threads = 4;
  /// Largest k a TopK request may ask for.
  uint32_t max_top_k = 1u << 16;
  /// SO_RCVTIMEO granularity: how often an idle connection polls the
  /// stop flag.
  int poll_interval_ms = 100;
  /// Allow kReload requests (the reload path re-reads index files by
  /// server-local path, so it is off unless the operator opts in).
  bool allow_reload = false;

  Status Validate() const;
};

class Server {
 public:
  /// Binds, listens, and starts the accept thread over `index`.
  static Result<std::unique_ptr<Server>> Start(
      std::shared_ptr<const SimilarityIndex> index, const ServerConfig& config);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the chosen one when config.port was 0).
  uint16_t port() const { return port_; }

  /// Swaps in a new index; in-flight requests finish on the old epoch.
  void Reload(std::shared_ptr<const SimilarityIndex> index);

  ServerStatsSnapshot Stats() const;

  /// Prometheus text exposition of this server's metrics registry
  /// (what a kMetrics frame returns).
  std::string MetricsText() const;

  /// Stops accepting, drains connections, joins all threads.
  /// Idempotent; also invoked by the destructor.
  void Stop();

 private:
  /// Request categories for per-type counters/latency; kTypeInvalid
  /// absorbs unknown opcodes and frames that fail before dispatch.
  enum RequestType {
    kTypePing = 0,
    kTypeTopK,
    kTypePair,
    kTypeStats,
    kTypeMetrics,
    kTypeReload,
    kTypeInvalid,
    kNumRequestTypes,
  };

  struct TypeInstruments {
    Counter* requests = nullptr;
    LatencyHistogram* latency = nullptr;
  };

  Server(std::shared_ptr<const SimilarityIndex> index,
         const ServerConfig& config);

  void AcceptLoop();
  void ServeConnection(int fd);
  /// Answers one decoded frame; returns the response payload and sets
  /// `*type` to the request's category for per-type accounting.
  std::vector<unsigned char> HandleRequest(
      std::span<const unsigned char> payload, RequestType* type);

  std::shared_ptr<const SimilarityIndex> Index() const;
  /// Publishes `index`'s posting shape to the registry.
  void RecordIndexShape(const SimilarityIndex& index);

  ServerConfig config_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  mutable std::mutex index_mu_;
  std::shared_ptr<const SimilarityIndex> index_;
  std::atomic<uint64_t> epoch_{1};

  std::mutex stop_mu_;
  std::atomic<bool> stopping_{false};

  // Private registry (see header comment); handles below are resolved
  // once in the constructor and updated lock-free on the request path.
  MetricsRegistry metrics_;
  std::array<TypeInstruments, kNumRequestTypes> per_type_{};
  Counter* errors_ = nullptr;
  Counter* bytes_read_ = nullptr;
  Counter* bytes_written_ = nullptr;
  Counter* reloads_ = nullptr;
  Counter* topk_touched_ = nullptr;
  Counter* topk_zero_fills_ = nullptr;
  Gauge* active_connections_ = nullptr;
  Gauge* index_postings_ = nullptr;
  Gauge* index_longest_posting_ = nullptr;

  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
};

}  // namespace sans

#endif  // SANS_SERVE_SERVER_H_

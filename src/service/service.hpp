// Network-facing decode service: a non-blocking (epoll) TCP front end over
// the runtime BatchEngine.
//
// Layering, wire to decoder:
//
//   socket bytes -> FrameReader (hardened framing; fatal errors close)
//                -> typed frame parse (malformed -> kError response)
//                -> codec cache resolve (unknown codec -> kError)
//                -> admission control (deadline / rate / quota gates;
//                   per-tenant overload policy: park, reject, shed)
//                -> forming block: admitted requests of one codec, from
//                   any tenant or connection, gather on the event loop
//                -> BatchEngine::submit_block, one engine block job per
//                   block (global overload backstop: at most
//                   engine.queue_capacity frames out to the engine and not
//                   yet answered, the newest refused kOverloaded); expiry
//                   at lane fill, per-frame slots and per-frame booking
//                   stay with the engine
//                -> the worker's decoder for the block's codec (a
//                   per-worker cache the block's decoder picker reads):
//                   its lane stream, lanes full of independent requests
//                   from this block and the next ones of the same codec
//                -> completion hook, once per frame as the engine books it
//                   -> completion list -> event loop -> decode responses,
//                   one write per connection per batch of completions
//
// Flush rule: a forming block is submitted the moment it reaches the
// decoder's block_width() (older forming blocks of other codecs first:
// submission stays in arrival order), and at the end of every event-loop
// tick while fewer service blocks are in flight than the engine has workers
// (during a drain, always). There is no linger timer and so no linger knob:
// a request waits for lane-mates only while every worker is busy, and then
// only until a block completes or a younger block fills; an idle worker
// never waits for a block to fill. Codecs never share a block.
//
// Threading: one event-loop thread owns every socket and all service state
// (connections, forming blocks, parked requests, tenant accounting) under
// state_mutex_; engine workers only decode blocks and push each booked
// frame through a mutex-guarded list + eventfd. stats() and shutdown()
// may be called from any thread.
//
// Robustness invariants (tests/service_test.cpp enforces these):
//   * every byte from the wire is hostile — no input can crash, hang, or
//     leak; malformed frames get typed errors, unframeable streams get one
//     error then the connection closes;
//   * every *accepted* request resolves exactly once: a decode response, a
//     shed/expired response, or (post-deadline drain) kDeadlineExpired —
//     never silence;
//   * a slow or dead client gets bounded write buffering then eviction,
//     never unbounded memory;
//   * shutdown(deadline) drains: stop accepting, finish or expire in-flight
//     work, report stragglers — it never hangs past its deadline + a small
//     cancellation grace.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/batch_engine.hpp"
#include "service/admission.hpp"
#include "service/codec_cache.hpp"
#include "service/wire.hpp"
#include "util/thread_annotations.hpp"

namespace ldpc::service {

struct ServiceConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back via port().
  std::uint16_t port = 0;
  std::size_t max_connections = 256;
  /// Write-buffer cap per connection: a client that stops reading is
  /// evicted once its pending responses exceed this many bytes.
  std::size_t max_write_buffer = 4U << 20;
  std::size_t max_frame_bytes = kMaxPayloadBytes;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  /// shrink it so slow-client eviction triggers without megabytes of
  /// traffic.
  int send_buffer_bytes = 0;

  /// Decoder each worker builds per (standard, rate, z); see
  /// core/decoder_factory.hpp for names. The default is the batched SIMD
  /// twin of layered-minsum-fixed (bit-identical results), which decodes a
  /// block's requests one per lane, as every SIMD name does; any name
  /// works, and a scalar one just decodes its blocks frame by frame.
  std::string decoder_name = "layered-minsum-simd-batched";
  DecoderOptions decoder_options;
  /// Hook run on the *worker thread* when it builds a decoder, after
  /// `decoder_options` is copied — the place to wire a thread_local
  /// FaultInjector for chaos runs (see tests/chaos_test.cpp's idiom).
  std::function<void(DecoderOptions&)> decoder_options_hook;

  /// Engine shape. overload_policy is forced to kRejectNewest — per-tenant
  /// policy lives in admission control, and the engine must never block
  /// the event loop or silently shed. queue_capacity is the global backstop
  /// in frames: requests past that many submitted and not yet answered are
  /// refused kOverloaded. The engine's job counters count frames.
  BatchEngineConfig engine;

  TenantConfig default_tenant;
  std::map<std::uint32_t, TenantConfig> tenants;
};

struct ServiceStats {
  // Connections.
  std::size_t connections_accepted = 0;
  std::size_t connections_refused = 0;  ///< over max_connections
  std::size_t connections_active = 0;
  std::size_t connections_evicted_slow = 0;  ///< write buffer over cap
  std::size_t connections_fatal_framing = 0;
  std::size_t connections_closed_by_peer = 0;
  // Frames.
  std::size_t frames_received = 0;
  std::size_t malformed_frames = 0;  ///< parse errors + bad types
  std::size_t requests_received = 0;
  std::size_t responses_sent = 0;
  std::size_t errors_sent = 0;
  // Admission outcomes.
  std::size_t jobs_admitted = 0;   ///< entered the engine (incl. unparked)
  /// Engine block jobs submitted; jobs_admitted / blocks_submitted is the
  /// mean block size.
  std::size_t blocks_submitted = 0;
  std::size_t jobs_parked = 0;     ///< ever parked
  std::size_t jobs_shed = 0;       ///< parked requests evicted (shed-oldest)
  std::size_t jobs_rate_limited = 0;
  std::size_t jobs_quota_rejected = 0;
  std::size_t jobs_deadline_refused = 0;  ///< dead on arrival
  std::size_t jobs_refused_draining = 0;
  /// Refused kOverloaded: over the global backstop (engine.queue_capacity
  /// frames out to the engine), or the engine stopped.
  std::size_t jobs_engine_rejected = 0;
  /// Connections whose reads were paused for wire-level backpressure (the
  /// owning tenant's wait line filled); reads resume when capacity frees.
  std::size_t read_throttle_events = 0;
  // Completions.
  std::size_t jobs_completed = 0;
  std::size_t jobs_deadline_expired = 0;  ///< completed with that status
  std::size_t jobs_flushed_at_drain = 0;  ///< parked, expired by shutdown
  // Bytes.
  std::size_t bytes_read = 0;
  std::size_t bytes_written = 0;

  CodecCacheStats codec;
  std::vector<TenantStats> tenants;
  EngineMetrics engine;
};

struct ShutdownReport {
  /// True when every accepted job resolved before the drain deadline
  /// (without needing forced cancellation).
  bool drained_clean = false;
  /// Parked requests answered kDeadlineExpired at the deadline.
  std::size_t parked_flushed = 0;
  /// In-flight jobs whose cancel token was tripped at the deadline.
  std::size_t cancelled_in_flight = 0;
  /// Engine jobs still running after cancellation grace (from drain_until).
  std::size_t stragglers = 0;
  std::vector<std::size_t> straggler_frames;
};

class DecodeService {
 public:
  explicit DecodeService(ServiceConfig config);
  /// Stops the event loop and the engine; equivalent to
  /// shutdown(now + 1s) when the caller never drained explicitly.
  ~DecodeService();

  DecodeService(const DecodeService&) = delete;
  DecodeService& operator=(const DecodeService&) = delete;

  /// Bind, listen, spawn the engine and the event loop. Throws ldpc::Error
  /// when the socket cannot be bound.
  void start();

  /// Port actually bound (after start()).
  std::uint16_t port() const { return bound_port_; }

  /// Tear-free stats snapshot, callable from any thread.
  ServiceStats stats() const LDPC_EXCLUDES(state_mutex_);

  /// Graceful drain (the SIGTERM path): stop accepting work, answer every
  /// already-accepted job, expire what cannot finish by `deadline`, then
  /// stop. Idempotent; concurrent callers get the first call's report.
  ShutdownReport shutdown(Clock::time_point deadline)
      LDPC_EXCLUDES(shutdown_mutex_, state_mutex_);

  /// Convenience: drain with a relative timeout.
  ShutdownReport shutdown_after(std::chrono::nanoseconds timeout) {
    return shutdown(Clock::now() + timeout);
  }

 private:
  struct Connection;
  struct PendingJob;
  struct Block;
  /// A booked frame: position `position` of `block`.
  struct Completion {
    std::shared_ptr<Block> block;
    std::size_t position = 0;
  };

  // Every handler below runs on the event-loop thread with state_mutex_
  // held for the whole tick; the REQUIRES annotations make that discipline
  // compiler-checked under clang.
  void loop_main() LDPC_EXCLUDES(state_mutex_);
  void handle_accept() LDPC_REQUIRES(state_mutex_);
  void handle_readable(Connection& conn) LDPC_REQUIRES(state_mutex_);
  void handle_writable(Connection& conn) LDPC_REQUIRES(state_mutex_);
  void process_frames(Connection& conn) LDPC_REQUIRES(state_mutex_);
  void handle_decode_request(Connection& conn, DecodeRequest&& request)
      LDPC_REQUIRES(state_mutex_);
  /// Add an admitted request to its codec's forming block, submitting the
  /// block, after every older forming block, once it reaches block_width_.
  void join_block(const std::shared_ptr<PendingJob>& job)
      LDPC_REQUIRES(state_mutex_);
  /// End of tick: the flush rule (see the file comment).
  void submit_forming_blocks() LDPC_REQUIRES(state_mutex_);
  /// One engine block job; requests over the global backstop, or refused by
  /// the engine, are answered kOverloaded.
  void submit_block(const std::shared_ptr<Block>& block)
      LDPC_REQUIRES(state_mutex_);
  void process_completions() LDPC_REQUIRES(state_mutex_)
      LDPC_EXCLUDES(completions_mutex_);
  void unpark_tenant(std::uint32_t tenant_id) LDPC_REQUIRES(state_mutex_);
  /// Wire-level backpressure: stop reading from `conn` because a request it
  /// sent parked in `tenant_id`'s wait line. Unread bytes accumulate in the
  /// kernel buffer and TCP flow control slows the sender — the event loop
  /// never spends a cycle parsing work the tenant cannot take.
  void throttle_connection(Connection& conn, std::uint32_t tenant_id)
      LDPC_REQUIRES(state_mutex_);
  void unthrottle_tenant(std::uint32_t tenant_id) LDPC_REQUIRES(state_mutex_);
  /// Resume reads when the tenant can make progress again (free in-flight
  /// capacity, or an emptied wait line).
  void maybe_unthrottle(std::uint32_t tenant_id) LDPC_REQUIRES(state_mutex_);
  void flush_for_drain() LDPC_REQUIRES(state_mutex_);
  /// Answer a parked request kDeadlineExpired on its connection: send the
  /// response, drop its serial from the connection and count the response.
  /// False (nothing sent) when the connection is gone. Callers keep their
  /// own completion counters.
  bool answer_parked_expired(const PendingJob& job)
      LDPC_REQUIRES(state_mutex_);
  /// append_bytes, then write what the socket takes.
  void send_bytes(Connection& conn, std::vector<std::uint8_t> bytes)
      LDPC_REQUIRES(state_mutex_);
  /// Append to the connection's write buffer without writing; a client
  /// whose buffer would pass max_write_buffer is evicted instead (false).
  bool append_bytes(Connection& conn, std::vector<std::uint8_t> bytes)
      LDPC_REQUIRES(state_mutex_);
  void send_error(Connection& conn, std::uint64_t request_id,
                  WireErrorCode code, const std::string& detail)
      LDPC_REQUIRES(state_mutex_);
  void close_connection(int fd, bool evicted, bool by_peer)
      LDPC_REQUIRES(state_mutex_);
  void update_epoll(Connection& conn) LDPC_REQUIRES(state_mutex_);
  std::string build_stats_json() LDPC_REQUIRES(state_mutex_);
  /// Completion hook of a block job, once per booked frame (worker
  /// thread). Wakes the loop only when the list was empty: a non-empty
  /// list already has a wake-up pending, and the loop takes all of it.
  void post_completion(std::shared_ptr<Block> block, std::size_t position)
      LDPC_EXCLUDES(completions_mutex_);
  void wake_loop();

  ServiceConfig config_;
  std::uint16_t bound_port_ = 0;
  /// The decoder's block_width(), from the factory (no decoder built).
  std::size_t block_width_ = 1;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int event_fd_ = -1;

  std::unique_ptr<CodecCache> codecs_;
  std::unique_ptr<BatchEngine> engine_;
  std::thread loop_thread_;

  // All state below state_mutex_ is owned by the event loop; stats() and
  // shutdown() take the same mutex from other threads. Lock order:
  // shutdown_mutex_ -> state_mutex_ -> completions_mutex_; the engine's and
  // codec cache's internal mutexes nest inside state_mutex_.
  mutable Mutex state_mutex_;
  std::condition_variable drained_cv_;
  /// Pure decision machine (no internal lock): tenant buckets, wait-line
  /// accounting. Mutated only under state_mutex_.
  AdmissionController admission_ LDPC_GUARDED_BY(state_mutex_);
  std::map<int, std::unique_ptr<Connection>> conns_
      LDPC_GUARDED_BY(state_mutex_);
  /// Connections closed during this event-loop tick. Destruction is
  /// deferred to the next tick so in-flight references (a handler that
  /// triggered the eviction mid-send) stay valid; the fd itself is closed
  /// and unmapped immediately.
  std::vector<std::unique_ptr<Connection>> graveyard_
      LDPC_GUARDED_BY(state_mutex_);
  std::map<std::uint64_t, std::shared_ptr<PendingJob>> pending_
      LDPC_GUARDED_BY(state_mutex_);
  /// Forming blocks, one per codec with admitted requests, oldest first.
  std::vector<std::shared_ptr<Block>> forming_ LDPC_GUARDED_BY(state_mutex_);
  /// Blocks submitted with a request not answered yet, and the submitted
  /// requests not answered yet (the global backstop's count).
  std::size_t blocks_in_flight_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t frames_in_flight_ LDPC_GUARDED_BY(state_mutex_) = 0;
  /// Tenant id -> parked serials, oldest first.
  std::map<std::uint32_t, std::deque<std::uint64_t>> parked_
      LDPC_GUARDED_BY(state_mutex_);
  /// Tenant id -> connections whose reads are paused for backpressure.
  std::map<std::uint32_t, std::set<int>> throttled_fds_
      LDPC_GUARDED_BY(state_mutex_);
  ServiceStats counters_ LDPC_GUARDED_BY(state_mutex_);
  std::uint64_t next_serial_ LDPC_GUARDED_BY(state_mutex_) = 1;
  bool draining_ LDPC_GUARDED_BY(state_mutex_) = false;
  bool flush_requested_ LDPC_GUARDED_BY(state_mutex_) = false;
  bool stop_requested_ LDPC_GUARDED_BY(state_mutex_) = false;
  bool stopped_ LDPC_GUARDED_BY(state_mutex_) = false;
  /// In-flight tokens tripped at drain.
  std::size_t drain_cancelled_ LDPC_GUARDED_BY(state_mutex_) = 0;

  Mutex completions_mutex_;
  std::vector<Completion> completions_ LDPC_GUARDED_BY(completions_mutex_);

  Mutex shutdown_mutex_;  ///< serializes shutdown(); taken first
  bool shutdown_done_ LDPC_GUARDED_BY(shutdown_mutex_) = false;
  ShutdownReport shutdown_report_ LDPC_GUARDED_BY(shutdown_mutex_);
};

}  // namespace ldpc::service

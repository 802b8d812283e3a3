#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "cluster/messages.hpp"
#include "cluster/transport.hpp"
#include "telemetry/sample_sink.hpp"
#include "telemetry/sinks.hpp"

namespace fs2::cluster {

/// Telemetry sink that streams a node's bus traffic to the coordinator:
/// channel registrations become kChannel frames, phase boundaries become
/// kPhaseBracket frames (stamped with wall time since the shared epoch so
/// the coordinator can verify cross-node lockstep), and samples batch into
/// kSampleBatch frames.
///
/// Summarization happens at the EDGE: the sink runs the same SummarySink a
/// local run uses and ships the finished per-phase rows (kNodeSummary)
/// just before each end bracket, so the coordinator stores rows instead of
/// re-aggregating every sample. Raw sample batches cross the wire only for
/// channels that feed a cluster aggregate (aggregate_rules.hpp) — the
/// coordinator needs those per-sample for index-aligned fleet sums/maxes.
/// Everything else stays on the node, cutting both coordinator ingest work
/// and wire bandwidth to the aggregate streams' share of the telemetry.
///
/// Batching bounds the frame rate without unbounding memory: a per-channel
/// buffer flushes at its batch threshold or at the next phase boundary,
/// whichever comes first, so the sink retains O(channels x batch) samples.
/// The threshold adapts to the channel's observed sample rate — each flush
/// re-targets kTargetBatchSeconds' worth of samples per frame (clamped to
/// [kMinBatchSamples, kMaxBatchSamples]) — so a 20 Sa/s host metric ships
/// with bounded latency while a 500 Sa/s sim meter amortizes its syscalls
/// over thousands of samples. The flush path is allocation-free: batches
/// keep their capacity and the frame is encoded into a reused scratch
/// writer, sent with a single send(2).
///
/// Everything runs on the agent's publishing thread; the connection is the
/// agent's single campaign-thread socket.
class RemoteSink : public telemetry::SampleSink {
 public:
  /// Initial flush threshold (the pre-adaptive fixed batch size).
  static constexpr std::size_t kBatchSamples = 256;
  static constexpr std::size_t kMinBatchSamples = 16;
  static constexpr std::size_t kMaxBatchSamples = 4096;
  /// How much stream time one frame should carry once the rate is known.
  /// Two seconds keeps a fast channel's frames big (a 500 Sa/s meter ships
  /// 1000-sample frames instead of 4/second at the old fixed 256) while
  /// staying far inside the coordinator's per-node alignment window
  /// (kMaxLagSamples) — and phase-end flushes bound the latency of slow
  /// channels regardless.
  static constexpr double kTargetBatchSeconds = 2.0;

  /// `conn` must outlive the sink. `epoch` is the shared campaign start
  /// (agent clock) the phase brackets are stamped against.
  RemoteSink(Connection* conn, std::chrono::steady_clock::time_point epoch);

  void on_channel(telemetry::ChannelId id, const telemetry::ChannelInfo& info) override;
  void on_phase_begin(const telemetry::PhaseInfo& phase) override;
  void on_sample(telemetry::ChannelId id, const telemetry::Sample& sample) override;
  void on_samples(telemetry::ChannelId id, const telemetry::Sample* samples,
                  std::size_t count) override;
  void on_phase_end(const telemetry::PhaseInfo& phase) override;
  void on_finish() override;

  /// Phases streamed so far (== the index the NEXT on_phase_begin gets).
  std::uint32_t phases_begun() const { return phase_count_; }

  /// Muted, the sink keeps all its local bookkeeping (summary aggregation,
  /// batch buffers, phase counting) but writes nothing to the wire. The
  /// rejoin path mutes the sink while it aborts a half-run phase — the
  /// implicit end bracket and the partial phase's buffered samples must not
  /// reach the coordinator, which has already reset this node to the resume
  /// phase.
  void mute(bool muted) { muted_ = muted; }

  /// Re-send every channel registration on the (fresh) link: the one a
  /// rejoin replaced may have dropped before the originals reached the
  /// coordinator, which would then refuse the node's samples. The
  /// coordinator accepts repeats.
  void announce_channels();

  /// Reset the phase counter so the next on_phase_begin is stamped
  /// `next_phase_index` — after a rejoin, the re-run of the interrupted
  /// phase must carry the coordinator-assigned resume index, not the
  /// counter this sink reached before the crash.
  void rewind_phase(std::uint32_t next_phase_index) { phase_count_ = next_phase_index; }

  /// Current flush threshold of a channel (tests/introspection).
  std::size_t batch_threshold(telemetry::ChannelId id) const {
    return id < batches_.size() ? batches_[id].threshold : kBatchSamples;
  }

  /// Whether a channel's raw samples cross the wire (it feeds a cluster
  /// aggregate) or stay on the node as edge-summarized rows.
  bool ships_samples(telemetry::ChannelId id) const {
    return id < batches_.size() && batches_[id].ships_samples;
  }

 private:
  void flush(telemetry::ChannelId id);
  void flush_all();
  void send_new_summary_rows();
  double epoch_elapsed_s() const;

  struct Batch {
    std::optional<ChannelMsg> registration;  ///< set once the channel is announced
    std::vector<telemetry::Sample> samples;
    std::size_t threshold = kBatchSamples;
    bool ships_samples = false;
  };

  Connection* conn_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Batch> batches_;  ///< index = ChannelId
  WireWriter scratch_;          ///< reused frame-payload encoder
  telemetry::SummarySink summary_;    ///< edge aggregation (same rows as local runs)
  std::size_t summary_rows_sent_ = 0; ///< watermark into summary_.rows()
  std::uint32_t phase_count_ = 0;
  bool muted_ = false;  ///< drop wire writes, keep local bookkeeping
};

}  // namespace fs2::cluster

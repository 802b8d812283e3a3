#include "cluster/remote_sink.hpp"

#include <algorithm>

#include "cluster/aggregate_rules.hpp"
#include "trace/registry.hpp"

namespace fs2::cluster {

namespace {

trace::Counter& batch_frame_counter() {
  static trace::Counter& c =
      trace::Registry::instance().counter("remote_sink.sample_batch_frames");
  return c;
}

/// The adaptive flush threshold, observable: a saturated fleet shows the
/// thresholds climbing toward kMaxBatchSamples.
trace::Gauge& batch_threshold_gauge() {
  static trace::Gauge& g = trace::Registry::instance().gauge("remote_sink.batch_threshold");
  return g;
}

/// Encoded frame payload sizes — the live distribution behind the wire
/// protocol's bytes-per-sample claims in docs/cluster.md.
trace::Histogram& tx_bytes_hist() {
  static trace::Histogram& h =
      trace::Registry::instance().histogram("cluster.tx_frame_bytes");
  return h;
}

}  // namespace

RemoteSink::RemoteSink(Connection* conn, std::chrono::steady_clock::time_point epoch)
    : conn_(conn), epoch_(epoch) {
  if (conn_ == nullptr) throw Error("RemoteSink: connection must not be null");
}

double RemoteSink::epoch_elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void RemoteSink::on_channel(telemetry::ChannelId id, const telemetry::ChannelInfo& info) {
  if (batches_.size() <= id) batches_.resize(id + 1);
  batches_[id].ships_samples = aggregate_rule_for(info.name) != nullptr;
  summary_.on_channel(id, info);
  ChannelMsg msg;
  msg.channel_id = static_cast<std::uint32_t>(id);
  msg.name = info.name;
  msg.unit = info.unit;
  msg.trim_phase = info.trim == telemetry::TrimMode::kPhase ? 1 : 0;
  msg.summarize = info.summarize ? 1 : 0;
  batches_[id].registration = msg;
  if (!muted_) conn_->send(msg.encode());
}

void RemoteSink::announce_channels() {
  if (muted_) return;
  for (const Batch& batch : batches_)
    if (batch.registration) conn_->send(batch.registration->encode());
}

void RemoteSink::on_phase_begin(const telemetry::PhaseInfo& phase) {
  summary_.on_phase_begin(phase);
  PhaseBracketMsg msg;
  msg.is_begin = 1;
  msg.phase_index = phase_count_++;
  msg.phase_name = phase.name;
  msg.duration_s = phase.duration_s;
  msg.time_offset_s = phase.time_offset_s;
  msg.start_delta_s = phase.start_delta_s;
  msg.stop_delta_s = phase.stop_delta_s;
  msg.epoch_elapsed_s = epoch_elapsed_s();
  if (!muted_) conn_->send(msg.encode());
}

void RemoteSink::on_sample(telemetry::ChannelId id, const telemetry::Sample& sample) {
  if (batches_.size() <= id) batches_.resize(id + 1);
  summary_.on_sample(id, sample);
  Batch& batch = batches_[id];
  if (!batch.ships_samples) return;
  batch.samples.push_back(sample);
  if (batch.samples.size() >= batch.threshold) flush(id);
}

void RemoteSink::on_samples(telemetry::ChannelId id, const telemetry::Sample* samples,
                            std::size_t count) {
  if (batches_.size() <= id) batches_.resize(id + 1);
  summary_.on_samples(id, samples, count);
  Batch& batch = batches_[id];
  if (!batch.ships_samples) return;
  batch.samples.insert(batch.samples.end(), samples, samples + count);
  if (batch.samples.size() >= batch.threshold) flush(id);
}

void RemoteSink::send_new_summary_rows() {
  const std::vector<metrics::Summary>& rows = summary_.rows();
  for (; summary_rows_sent_ < rows.size(); ++summary_rows_sent_) {
    const metrics::Summary& row = rows[summary_rows_sent_];
    NodeSummaryMsg msg;
    msg.phase_index = phase_count_ - 1;
    msg.name = row.name;
    msg.unit = row.unit;
    msg.samples = row.samples;
    msg.mean = row.mean;
    msg.stddev = row.stddev;
    msg.min = row.min;
    msg.max = row.max;
    msg.p50 = row.p50;
    msg.p95 = row.p95;
    msg.p99 = row.p99;
    // Muted, the watermark still advances: a partial phase's rows are
    // dropped for good, not deferred past the rejoin.
    if (!muted_) conn_->send(msg.encode());
  }
}

void RemoteSink::on_phase_end(const telemetry::PhaseInfo& phase) {
  // Samples and summary rows first: the end bracket doubles as the
  // coordinator's "node finished phase k" barrier signal, so the phase's
  // complete telemetry must already be on the wire when it arrives.
  flush_all();
  summary_.on_phase_end(phase);
  send_new_summary_rows();
  PhaseBracketMsg msg;
  msg.is_begin = 0;
  msg.phase_index = phase_count_ - 1;
  msg.phase_name = phase.name;
  msg.duration_s = phase.duration_s;
  msg.time_offset_s = phase.time_offset_s;
  msg.epoch_elapsed_s = epoch_elapsed_s();
  if (!muted_) conn_->send(msg.encode());
}

void RemoteSink::on_finish() {
  flush_all();
  summary_.on_finish();
}

void RemoteSink::flush(telemetry::ChannelId id) {
  Batch& batch = batches_[id];
  if (batch.samples.empty()) return;
  if (muted_) {
    batch.samples.clear();  // partial-phase samples die with the mute
    return;
  }
  SampleBatchMsg::encode_into(scratch_, static_cast<std::uint32_t>(id),
                              batch.samples.data(), batch.samples.size());
  conn_->send(MessageType::kSampleBatch, scratch_);
  batch_frame_counter().add();
  tx_bytes_hist().record(static_cast<double>(scratch_.bytes().size()));

  // Re-target the flush threshold from this batch's observed rate so one
  // frame carries ~kTargetBatchSeconds of stream regardless of sample rate.
  // Phase-boundary flushes of partial batches skip the update — their span
  // reflects the cut, not the rate.
  if (batch.samples.size() >= batch.threshold) {
    const double span_s = batch.samples.back().time_s - batch.samples.front().time_s;
    if (span_s > 0.0) {
      const double rate = static_cast<double>(batch.samples.size() - 1) / span_s;
      const auto target = static_cast<std::size_t>(rate * kTargetBatchSeconds);
      batch.threshold = std::clamp(target, kMinBatchSamples, kMaxBatchSamples);
      batch_threshold_gauge().set(static_cast<double>(batch.threshold));
    }
  }
  batch.samples.clear();  // keep capacity — the flush path never reallocates
}

void RemoteSink::flush_all() {
  for (telemetry::ChannelId id = 0; id < batches_.size(); ++id) flush(id);
}

}  // namespace fs2::cluster

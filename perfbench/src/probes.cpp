// Layer probes of traced runs. Two kinds:
//  - micro probes, run on every workload: one public entry point of a
//    module timed in a tight loop on fixed inputs;
//  - fill-in probes: small versions of the other workloads (host kernel,
//    NSGA-II, 4-node fleet) that supply the per-layer metrics of modules
//    the traced workload never called, so every workload reports every
//    layer.

#include <optional>
#include <thread>

#include "arch/cache.hpp"
#include "arch/processor.hpp"
#include "bench.hpp"
#include "cluster/cluster_bus.hpp"
#include "cluster/messages.hpp"
#include "cluster/remote_sink.hpp"
#include "cluster/transport.hpp"
#include "control/budget.hpp"
#include "firestarter/sim_phases.hpp"
#include "fleet.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "sched/load_profile.hpp"
#include "sim/simulator.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/sinks.hpp"
#include "tune.hpp"
#include "util/strings.hpp"

namespace fs2::perfbench {

namespace {

constexpr int kMicroRepeats = 5;

/// The fleet's per-agent telemetry: three 50 s phases of the sim channel
/// mix (wall power, IPC, load level) at the virtual meter's 20 Sa/s.
constexpr int kPhases = 3;
constexpr double kPhaseS = 50.0;
constexpr double kSampleHz = 20.0;

std::vector<telemetry::Sample> phase_signal(double scale) {
  std::vector<telemetry::Sample> samples;
  const auto count = static_cast<std::size_t>(kPhaseS * kSampleHz);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / kSampleHz;
    samples.push_back({t, scale * (0.6 + 0.3 * std::sin(0.7 * t))});
  }
  return samples;
}

/// Publish the fleet's per-agent campaign onto `bus` in 64-sample batches;
/// returns the number of samples published.
std::size_t publish_campaign(telemetry::TelemetryBus& bus) {
  const firestarter::SimChannels ch = firestarter::register_sim_channels(bus, false, true, true);
  const std::vector<telemetry::Sample> power = phase_signal(300.0);
  const std::vector<telemetry::Sample> ipc = phase_signal(2.0);
  const std::vector<telemetry::Sample> load = phase_signal(1.0);
  std::size_t published = 0;
  for (int phase = 0; phase < kPhases; ++phase) {
    bus.begin_phase(strings::format("p%d", phase), kPhaseS, 2.0, 1.0);
    for (std::size_t at = 0; at < power.size(); at += 64) {
      const std::size_t n = std::min<std::size_t>(64, power.size() - at);
      bus.publish_batch(ch.power, {power.data() + at, n});
      bus.publish_batch(ch.ipc, {ipc.data() + at, n});
      bus.publish_batch(ch.load, {load.data() + at, n});
      published += 3 * n;
    }
    bus.end_phase();
  }
  bus.finish();
  return published;
}

void probe_sched(Report& report) {
  const sched::ProfilePtr profile = sched::parse_profile("constant:50", 1.0, 0.01);
  const sched::LoadProfile& p = *profile;
  constexpr int kCalls = 1 << 20;
  double sink = 0.0;
  for (int r = 0; r < kMicroRepeats; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) sink += p.load_at(static_cast<double>(i) * 1e-4);
    report.add("sched.load_at_ns", "ns", seconds_since(t0) / kCalls * 1e9);
  }
  report.check(sink > 0.0, "load profile returned no load");
}

void probe_control(Report& report) {
  constexpr std::size_t kNodes = 256;
  constexpr int kRounds = 200;
  for (int r = 0; r < kMicroRepeats; ++r) {
    control::BudgetApportioner apportioner(48000.0, kNodes);
    double total = 0.0;
    const auto t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round)
      for (std::size_t node = 0; node < kNodes; ++node)
        total += apportioner.on_report(node, 150.0 + static_cast<double>((node * 7 + round) % 80));
    report.add("control.apportion_us", "us", seconds_since(t0) / (kRounds * kNodes) * 1e6);
    report.check(total > 0.0, "apportioner assigned no power");
  }
}

void probe_telemetry(Report& report) {
  constexpr int kAgents = 16;
  for (int r = 0; r < kMicroRepeats; ++r) {
    std::size_t published = 0;
    const auto t0 = Clock::now();
    for (int agent = 0; agent < kAgents; ++agent) {
      telemetry::TelemetryBus bus;
      telemetry::SummarySink summary;
      bus.attach(&summary);
      published += publish_campaign(bus);
    }
    report.add("telemetry.publish_samples_per_s", "1/s",
               static_cast<double>(published) / seconds_since(t0));
  }
}

/// Feed one staged agent frame to the coordinator-side merge through the
/// product's public decoders and ClusterBus handlers; returns the samples
/// it carried.
std::size_t ingest(cluster::ClusterBus& bus, std::size_t node, const cluster::Frame& frame,
                   cluster::SampleBatchMsg& batch) {
  cluster::WireReader reader(frame.payload);
  switch (frame.type) {
    case cluster::MessageType::kChannel:
      bus.on_channel(node, cluster::ChannelMsg::decode(reader));
      return 0;
    case cluster::MessageType::kPhaseBracket:
      bus.on_bracket(node, cluster::PhaseBracketMsg::decode(reader));
      return 0;
    case cluster::MessageType::kSampleBatch:
      cluster::SampleBatchMsg::decode_into(reader, batch);
      bus.on_samples(node, batch);
      return batch.samples.size();
    case cluster::MessageType::kNodeSummary:
      bus.on_summary(node, cluster::NodeSummaryMsg::decode(reader));
      return 0;
    default:
      return 0;
  }
}

void probe_cluster_ingest(Report& report) {
  // Stage one agent's real wire stream: TelemetryBus -> RemoteSink -> TCP.
  cluster::Listener listener(0, /*loopback_only=*/true);
  cluster::Connection agent =
      cluster::Connection::connect("127.0.0.1:" + std::to_string(listener.port()));
  cluster::Connection coordinator = listener.accept(5.0);
  std::vector<cluster::Frame> frames;
  std::thread reader([&] {
    cluster::Frame frame;
    while (coordinator.recv_into(frame, 5.0)) {
      if (frame.type == cluster::MessageType::kShutdown) return;
      frames.push_back(frame);
    }
  });
  {
    telemetry::TelemetryBus bus;
    cluster::RemoteSink sink(&agent, Clock::now());
    bus.attach(&sink);
    publish_campaign(bus);
  }
  agent.send(cluster::ShutdownMsg{}.encode());
  reader.join();

  // Replay it as an 8-node fleet, frame-interleaved, into a fresh bus.
  constexpr std::size_t kNodes = 8;
  std::vector<std::string> names;
  for (std::size_t n = 0; n < kNodes; ++n) names.push_back("n" + std::to_string(n));
  cluster::SampleBatchMsg batch;
  for (int r = 0; r < kMicroRepeats; ++r) {
    cluster::ClusterBus bus(names);
    std::size_t samples = 0;
    const auto t0 = Clock::now();
    for (const cluster::Frame& frame : frames)
      for (std::size_t node = 0; node < kNodes; ++node) samples += ingest(bus, node, frame, batch);
    bus.finish();
    const double wall = seconds_since(t0);
    report.check(samples > 0 && !bus.merged_rows().empty(), "cluster ingest merged nothing");
    report.add("cluster.bus_ingest_samples_per_s", "1/s", static_cast<double>(samples) / wall);
  }
}

void probe_sim_trace(Report& report) {
  const sim::Simulator simulator(sim::MachineConfig::named("zen2"));
  const payload::FunctionDef& fn = payload::select_function(arch::epyc_7502_model());
  const payload::PayloadStats stats = payload::analyze_payload(
      fn.mix, payload::InstructionGroups::parse(fn.default_groups), arch::CacheHierarchy::zen2());
  const sim::WorkloadPoint point = simulator.run(stats, sim::RunConditions{});
  constexpr int kSamples = 1 << 18;
  for (int r = 0; r < kMicroRepeats; ++r) {
    sim::PowerTraceStream stream(simulator, point, kSampleHz, 0x5eed + static_cast<unsigned>(r));
    double sum = 0.0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSamples; ++i) sum += stream.next();
    report.add("sim.trace_samples_per_s", "1/s", kSamples / seconds_since(t0));
    report.check(sum > 0.0, "power trace produced no power");
  }
}

void probe_tuning(const Args& args, Report& out, SpanLog& spans) {
  TuneSpec spec;
  spec.individuals = 8;
  spec.generations = 5;
  spec.setup_repeats = 1;
  spec.seed = args.seed;
  const TuneOutcome outcome = run_nsga2(spec, spans);
  add_tuning_layers(spans, out);
  out.add("tuning.evaluations", "count", static_cast<double>(outcome.evaluations));
  out.add("tuning.front_size", "count", static_cast<double>(outcome.front_size));
  out.add("tuning.best_w", "W", outcome.best_objectives.empty() ? 0.0 : outcome.best_objectives[0]);
}

void probe_fleet(const Args& args, Report& out, SpanLog& spans) {
  FleetSpec spec;
  spec.nodes = "zen2@1500x2,haswell@2000x2";
  spec.campaign = "phase name=a duration=10\nphase name=b duration=10\n";
  spec.budget = "cluster-power=750W";
  spec.seed = args.seed;
  const FleetOutcome outcome = run_campaign(spec, last_cpus(2), spans);
  check_fleet(outcome, out);
  if (outcome.timed) add_fleet_layers(outcome, out);
}

}  // namespace

void probe_layers(const Args& args, Report& report, SpanLog& spans) {
  spans.set_enabled(true);
  {
    auto span = spans.span("probe.micro");
    probe_sched(report);
    probe_control(report);
    probe_telemetry(report);
    probe_cluster_ingest(report);
    probe_sim_trace(report);
  }
  Report fill;
  if (!report.has("payload.compile_ms")) probe_kernel(args, fill, spans);
  spans.set_enabled(true);
  if (!report.has("tuning.evaluate_ms")) probe_tuning(args, fill, spans);
  if (!report.has("cluster.handshake_s")) probe_fleet(args, fill, spans);
  spans.set_enabled(false);
  report.absorb_probe(fill);
}

}  // namespace fs2::perfbench

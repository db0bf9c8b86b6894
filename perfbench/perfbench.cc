// perfbench: the SUD datapath benchmark.
//
//   perfbench --workload <rx_stream|udp_rr|tx_jumbo|rx_flows_mq> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.csv>]
//
// Drives the whole SUD stack (NIC device model, IOMMU, safe-PCI, uchan,
// Ethernet proxy, SUD-UML, e1000e, kernel stack) through the test harness's
// NetBench, one operation in flight from one generator thread. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a traced
// phase and prints the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md has the
// workloads, the metric definitions and the checks.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "src/base/rng.h"
#include "tests/harness.h"

namespace perfbench {
namespace {

using sud::ConstByteSpan;
using sud::testing::NetBench;
using Mode = sud::uml::DriverHost::Mode;

constexpr size_t kTcpMss = 1448;        // TCP_STREAM payload per frame
constexpr size_t kUdpPayload = 64 - 22;  // 64-byte UDP frames (the paper's UDP rows)
constexpr size_t kJumboMss = 8948;      // 9000-MTU TCP segment payload
constexpr size_t kJumboHead = 2048;     // linear head; the rest in 2 KiB frags
constexpr size_t kJumboFrag = 2048;     //   -> 5-descriptor chains
constexpr int kStreamBurst = 16;
constexpr int kJumboBurst = 8;
constexpr int kSetups = 7;              // set-ups per run; setup_s is their median
constexpr uint64_t kWarmupOps = 1000;   // also the determinism-replay length
constexpr auto kOpDeadline = std::chrono::seconds(1);
// rx_flows_mq: flows and the Zipf skew of their packet counts.
constexpr uint32_t kMqFlows = 1u << 17;
constexpr double kMqZipfS = 1.1;
constexpr uint32_t kMqSequence = 1u << 20;
// A traced run's self times must add up to its traced wall time within this
// share (the rest is the loop between operations).
constexpr double kSelfSumTolerance = 0.05;
// Spans written to --trace-out (the first ones of the traced phase).
constexpr size_t kWrittenSpans = 100000;
// A traced run alternates slices of this length between the traced bench and
// an untraced one, so both see the same stretches of host speed.
constexpr double kSliceSeconds = 0.5;

enum class Kind { kRxStream, kUdpRr, kTxJumbo, kRxFlowsMq };

struct Args {
  Kind kind = Kind::kRxStream;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- inputs ------------------------------------------------------------------

// Frames the seeded generator built. Each carries its pool index in the first
// four payload bytes, so a delivered frame names the one it must equal.
struct FramePool {
  std::vector<std::vector<uint8_t>> frames;

  // The index of the pool frame `frame` equals byte for byte, or -1.
  int64_t Match(ConstByteSpan frame) const {
    if (frame.size() < sud::kern::kPacketMinSize + 4) {
      return -1;
    }
    uint32_t index = sud::LoadLe32(frame.data() + sud::kern::kPacketMinSize);
    if (index >= frames.size()) {
      return -1;
    }
    const std::vector<uint8_t>& want = frames[index];
    if (want.size() != frame.size() || std::memcmp(want.data(), frame.data(), want.size()) != 0) {
      return -1;
    }
    return index;
  }
};

std::vector<uint8_t> Payload(sud::Rng& rng, size_t len, uint32_t index) {
  std::vector<uint8_t> payload(len);
  for (size_t i = 0; i < len; i += 8) {
    uint64_t word = rng.Next();
    std::memcpy(payload.data() + i, &word, std::min<size_t>(8, len - i));
  }
  sud::StoreLe32(payload.data(), index);
  return payload;
}

struct Inputs {
  FramePool to_sut;    // frames the peer sends (requests, stream, flows)
  FramePool to_peer;   // frames the SUT sends (replies, jumbo segments)
  std::vector<uint32_t> sequence;  // rx_flows_mq: the flow of each frame sent
};

Inputs GenerateInputs(Kind kind, uint64_t seed) {
  sud::Rng rng(Mix(seed ^ 0x5eedull));
  Inputs in;
  const uint8_t* a = sud::testing::kMacA;  // SUT
  const uint8_t* b = sud::testing::kMacB;  // peer
  auto port = [&rng]() { return static_cast<uint16_t>(1024 + rng.Below(64000)); };
  switch (kind) {
    case Kind::kRxStream: {
      // 600 frames: not a divisor or multiple of the 512-entry RX ring, so a
      // stale buffer from one lap back never equals the expected frame.
      uint16_t sport = port(), dport = port();
      for (uint32_t i = 0; i < 600; ++i) {
        std::vector<uint8_t> payload = Payload(rng, kTcpMss, i);
        in.to_sut.frames.push_back(sud::kern::BuildPacket(a, b, sport, dport, payload));
      }
      break;
    }
    case Kind::kUdpRr: {
      uint16_t client = port(), server = port();
      for (uint32_t i = 0; i < 600; ++i) {
        std::vector<uint8_t> payload = Payload(rng, kUdpPayload, i);
        in.to_sut.frames.push_back(sud::kern::BuildPacket(a, b, client, server, payload));
        // The reply echoes the request's payload back: pairing by index.
        in.to_peer.frames.push_back(sud::kern::BuildPacket(b, a, server, client, payload));
      }
      break;
    }
    case Kind::kTxJumbo: {
      uint16_t sport = port(), dport = port();
      for (uint32_t i = 0; i < 60; ++i) {
        std::vector<uint8_t> payload = Payload(rng, kJumboMss, i);
        in.to_peer.frames.push_back(sud::kern::BuildPacket(b, a, sport, dport, payload));
      }
      break;
    }
    case Kind::kRxFlowsMq: {
      std::unordered_set<uint32_t> seen;
      while (in.to_sut.frames.size() < kMqFlows) {
        uint16_t sport = port(), dport = port();
        if (!seen.insert((static_cast<uint32_t>(sport) << 16) | dport).second) {
          continue;
        }
        auto index = static_cast<uint32_t>(in.to_sut.frames.size());
        std::vector<uint8_t> payload = Payload(rng, kUdpPayload, index);
        in.to_sut.frames.push_back(sud::kern::BuildPacket(a, b, sport, dport, payload));
      }
      // Zipf(s) over the flows: flow i (0-based) gets weight 1/(i+1)^s.
      std::vector<double> cdf(kMqFlows);
      double total = 0;
      for (uint32_t i = 0; i < kMqFlows; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), kMqZipfS);
        cdf[i] = total;
      }
      in.sequence.resize(kMqSequence);
      for (uint32_t& flow : in.sequence) {
        double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * total;
        flow = static_cast<uint32_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        flow = std::min(flow, kMqFlows - 1);
      }
      break;
    }
  }
  return in;
}

// --- receivers (output checks) -------------------------------------------------

// A receiving stack's sink. Every delivered frame must equal a pool frame;
// `ordered` receivers also expect pool[(start + n) % size] as frame n, so a
// loss, duplicate, reorder or stale buffer shows. rx_flows_mq's two queues
// deliver in their own order, so there an order-independent digest (the sum
// of Mix(index)) is compared with the one sent instead.
struct Receiver {
  const FramePool* pool = nullptr;
  bool ordered = true;
  uint64_t expect = 0;  // next expected pool index (mod size)
  uint64_t delivered = 0;
  uint64_t mismatches = 0;
  uint64_t digest = 0;

  void OnFrame(ConstByteSpan frame) {
    int64_t index = pool->Match(frame);
    if (index < 0 || (ordered && static_cast<uint64_t>(index) != expect % pool->frames.size())) {
      ++mismatches;
    } else {
      digest += Mix(static_cast<uint64_t>(index));
    }
    ++expect;
    ++delivered;
  }
};

// --- the system under test -------------------------------------------------------

struct Sut {
  // Declared before the bench so they outlive the link that points at them.
  std::unique_ptr<LinkShim> shims[2];
  std::unique_ptr<NetBench> bench;
  sud::kern::NetDevice* sut_dev = nullptr;
  sud::kern::NetDevice* peer_dev = nullptr;
  Receiver sut_rx, peer_rx;
};

// Builds the simulated machine, exports the SUT NIC and starts its driver in
// pumped dispatch. `traced` swaps in the decorated driver and the link shims.
std::unique_ptr<Sut> Setup(Kind kind, bool traced) {
  auto sut = std::make_unique<Sut>();
  NetBench::Options options;
  if (kind == Kind::kTxJumbo) {
    options.mtu = options.peer_mtu = static_cast<uint32_t>(sud::kern::kJumboMtu);
  }
  if (kind == Kind::kRxFlowsMq) {
    options.nic_queues = 2;
  }
  sut->bench = std::make_unique<NetBench>(options);
  NetBench& b = *sut->bench;
  sud::Status started;
  if (!traced) {
    started = b.StartSut(Mode::kPumped);
  } else {
    auto driver = std::make_unique<TracedE1000e>(options.nic_queues, options.mtu);
    b.sut_driver = driver.get();
    started = b.host->Start(std::move(driver), Mode::kPumped);
    if (started.ok()) {
      started = b.kernel.net().BringUp("eth0");
    }
    sut->shims[0] = std::make_unique<LinkShim>(&b.sut_nic, Layer::kDevicesRxFrame);
    sut->shims[1] = std::make_unique<LinkShim>(&b.peer_nic, Layer::kPeerRxFrame);
    for (int side = 0; side < 2; ++side) {
      b.link.Attach(side, sut->shims[side].get());
    }
  }
  if (!started.ok()) {
    Die("starting the SUT driver failed: " + started.ToString());
  }
  sut->sut_dev = b.kernel.net().Find(b.SutIfname());
  sut->peer_dev = b.peer_env->netdev();
  if (kind == Kind::kRxFlowsMq) {
    sut->sut_dev->EnableFlowTracking();  // the default 2^21-slot (32 MiB) table
  }
  return sut;
}

void InstallReceivers(Sut& sut, const Inputs& in) {
  sut.sut_rx.pool = &in.to_sut;
  sut.sut_rx.ordered = in.sequence.empty();
  sut.peer_rx.pool = &in.to_peer;
  Sut* s = &sut;
  sut.sut_dev->set_rx_sink([s](const sud::kern::Skb& skb) {
    ScopedSpan span(Layer::kHarnessCheck);
    s->sut_rx.OnFrame(skb.span());
  });
  sut.peer_dev->set_rx_sink([s](const sud::kern::Skb& skb) {
    ScopedSpan span(Layer::kHarnessCheck);
    s->peer_rx.OnFrame(skb.span());
  });
}

// --- counters ----------------------------------------------------------------

// Every counter the checks and the per-layer metrics read, by name.
struct Counters {
  std::vector<std::pair<const char*, uint64_t>> values;

  void Add(const char* name, uint64_t value) { values.emplace_back(name, value); }
  uint64_t Get(const char* name) const {
    for (const auto& [key, value] : values) {
      if (std::strcmp(key, name) == 0) {
        return value;
      }
    }
    Die(std::string("unknown counter ") + name);
  }
};

Counters Snapshot(Sut& sut) {
  NetBench& b = *sut.bench;
  Counters c;
  const sud::CpuModel& cpu = b.machine.cpu();
  c.Add("cpu.kernel_ns", cpu.busy(sud::kAccountKernel));
  c.Add("cpu.driver_ns", cpu.busy(sud::kAccountDriver));
  c.Add("cpu.device_ns", cpu.busy(sud::kAccountDevice));
  c.Add("cpu.peer_ns", cpu.busy(sud::kAccountPeer));
  sud::Uchan::Stats u = b.ctx->AggregateCtlStats();
  c.Add("uchan.upcalls_sync", u.upcalls_sync);
  c.Add("uchan.upcalls_async", u.upcalls_async);
  c.Add("uchan.upcalls_timed_out", u.upcalls_timed_out);
  c.Add("uchan.upcalls_dropped_full", u.upcalls_dropped_full);
  c.Add("uchan.upcall_batches", u.upcall_batches);
  c.Add("uchan.downcalls_sync", u.downcalls_sync);
  c.Add("uchan.downcalls_async", u.downcalls_async);
  c.Add("uchan.downcall_batches", u.downcall_batches);
  c.Add("uchan.wakeups", u.wakeups);
  c.Add("uchan.ring_full_retries", u.ring_full_retries);
  c.Add("uchan.kernel_ns", u.kernel_ns);
  c.Add("uchan.driver_ns", u.driver_ns);
  const sud::devices::SimNic::Stats& nic = b.sut_nic.stats();
  c.Add("nic.rx_frames", nic.rx_frames.load());
  c.Add("nic.tx_frames", nic.tx_frames.load());
  c.Add("nic.desc_fetch_dma", nic.desc_fetch_dma.load());
  c.Add("nic.desc_writeback_dma", nic.desc_writeback_dma.load());
  c.Add("nic.dma_errors", nic.dma_errors.load());
  c.Add("nic.tx_chain_descs", nic.tx_chain_descs.load());
  uint64_t msi = 0;
  for (uint32_t q = 0; q < b.nic_queues_; ++q) {
    msi += b.machine.msi().delivered(static_cast<uint8_t>(b.ctx->irq_vector() + q));
  }
  c.Add("msi.sut", msi);
  const sud::hw::Iommu::IotlbStats& iotlb = b.machine.iommu().iotlb_stats();
  c.Add("iotlb.hits", iotlb.hits);
  c.Add("iotlb.misses", iotlb.misses);
  c.Add("iotlb.invalidations", iotlb.invalidations);
  c.Add("iotlb.evictions", iotlb.evictions);
  const sud::SudDeviceContext::InterruptStats& irq = b.ctx->interrupt_stats();
  c.Add("irq.forwarded", irq.forwarded);
  c.Add("irq.coalesced", irq.coalesced);
  const sud::EthernetProxy::Stats& proxy = b.proxy->stats();
  c.Add("proxy.guard_copies", proxy.guard_copies.load());
  c.Add("proxy.rx_downcalls", proxy.rx_downcalls.load());
  c.Add("proxy.rx_bundles", proxy.rx_bundles.load());
  c.Add("proxy.xmit_upcalls", proxy.xmit_upcalls.load());
  c.Add("proxy.xmit_batches", proxy.xmit_batches.load());
  c.Add("proxy.free_batches", proxy.free_batches.load());
  const sud::drivers::E1000eDriver& drv = *b.sut_driver;
  c.Add("driver.desc_window_maps", drv.desc_window_maps());
  c.Add("driver.tx_queued", drv.stats().tx_queued.load());
  c.Add("driver.tx_desc_queued", drv.stats().tx_desc_queued.load());
  c.Add("driver.rx_delivered", drv.stats().rx_delivered.load());
  c.Add("driver.interrupts", drv.stats().interrupts.load());
  c.Add("driver.free_batches", drv.stats().free_batches.load());
  const sud::kern::FlowTable* table = sut.sut_dev->flow_table();
  sud::kern::FlowTable::Stats flows = table != nullptr ? table->stats()
                                                       : sud::kern::FlowTable::Stats{};
  c.Add("flows.records", flows.records);
  c.Add("flows.inserts", flows.inserts);
  c.Add("flows.probe_steps", flows.probe_steps);
  c.Add("sut.rx_packets", sut.sut_dev->stats().rx_packets.load());
  c.Add("sut.tx_packets", sut.sut_dev->stats().tx_packets.load());
  c.Add("sut.rx_bad_checksum", sut.sut_dev->stats().rx_bad_checksum.load());
  c.Add("peer.rx_packets", sut.peer_dev->stats().rx_packets.load());
  c.Add("peer.rx_bad_checksum", sut.peer_dev->stats().rx_bad_checksum.load());
  return c;
}

// --- operations ----------------------------------------------------------------

// One workload's closed loop: Op(k) submits operation k and pumps, under the
// deadline, until it is fully delivered. Returns false when the deadline
// passed first; the run then goes on with the next operation.
class Driver {
 public:
  Driver(Kind kind, Sut& sut, const Inputs& in) : kind_(kind), sut_(sut), in_(in) {}

  bool Op(uint64_t k);
  // Frames delivered to a receiving stack so far (both directions).
  uint64_t Delivered() const { return sut_.sut_rx.delivered + sut_.peer_rx.delivered; }
  // Frames submitted, and the digest of the rx_flows_mq ones.
  uint64_t sent() const { return sent_; }
  uint64_t sent_digest() const { return sent_digest_; }

 private:
  void Pump() {
    ScopedSpan span(Layer::kUmlPump);
    sut_.bench->host->Pump();
  }
  // Pumps until `done` holds or the deadline passes.
  template <typename Done>
  bool PumpUntil(Done done, std::chrono::steady_clock::time_point deadline) {
    do {
      Pump();
      if (done()) {
        return true;
      }
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
  }
  void TransmitBatch(sud::kern::NetDevice* dev, std::vector<sud::kern::SkbPtr> skbs) {
    ScopedSpan span(Layer::kKernTransmit);
    (void)sut_.bench->kernel.net().TransmitBatch(dev, std::move(skbs));
  }

  Kind kind_;
  Sut& sut_;
  const Inputs& in_;
  uint64_t sent_ = 0;
  uint64_t sent_digest_ = 0;
};

bool Driver::Op(uint64_t k) {
  auto deadline = std::chrono::steady_clock::now() + kOpDeadline;
  std::vector<sud::kern::SkbPtr> skbs;
  switch (kind_) {
    case Kind::kRxStream: {
      const auto& frames = in_.to_sut.frames;
      for (int j = 0; j < kStreamBurst; ++j) {
        const auto& f = frames[(k * kStreamBurst + j) % frames.size()];
        skbs.push_back(sud::kern::MakeSkb({f.data(), f.size()}));
      }
      uint64_t target = sut_.sut_rx.delivered + kStreamBurst;
      sent_ += kStreamBurst;
      TransmitBatch(sut_.peer_dev, std::move(skbs));
      return PumpUntil([&] { return sut_.sut_rx.delivered >= target; }, deadline);
    }
    case Kind::kUdpRr: {
      uint64_t index = k % in_.to_sut.frames.size();
      const auto& request = in_.to_sut.frames[index];
      const auto& reply = in_.to_peer.frames[index];
      sut_.sut_rx.expect = index;   // the request of transaction k
      sut_.peer_rx.expect = index;  // and the reply paired with it
      uint64_t requests = sut_.sut_rx.delivered + 1;
      uint64_t replies = sut_.peer_rx.delivered + 1;
      sent_ += 2;
      skbs.push_back(sud::kern::MakeSkb({request.data(), request.size()}));
      TransmitBatch(sut_.peer_dev, std::move(skbs));
      if (!PumpUntil([&] { return sut_.sut_rx.delivered >= requests; }, deadline)) {
        return false;
      }
      std::vector<sud::kern::SkbPtr> response;
      response.push_back(sud::kern::MakeSkb({reply.data(), reply.size()}));
      TransmitBatch(sut_.sut_dev, std::move(response));
      return PumpUntil([&] { return sut_.peer_rx.delivered >= replies; }, deadline);
    }
    case Kind::kTxJumbo: {
      const auto& frames = in_.to_peer.frames;
      for (int j = 0; j < kJumboBurst; ++j) {
        const auto& f = frames[(k * kJumboBurst + j) % frames.size()];
        skbs.push_back(sud::kern::MakeFragSkb({f.data(), f.size()}, kJumboHead, kJumboFrag));
      }
      uint64_t target = sut_.peer_rx.delivered + kJumboBurst;
      sent_ += kJumboBurst;
      TransmitBatch(sut_.sut_dev, std::move(skbs));
      return PumpUntil([&] { return sut_.peer_rx.delivered >= target; }, deadline);
    }
    case Kind::kRxFlowsMq: {
      const auto& frames = in_.to_sut.frames;
      for (int j = 0; j < kStreamBurst; ++j) {
        uint32_t flow = in_.sequence[(k * kStreamBurst + j) % in_.sequence.size()];
        skbs.push_back(sud::kern::MakeSkb({frames[flow].data(), frames[flow].size()}));
        sent_digest_ += Mix(flow);
      }
      uint64_t target = sut_.sut_rx.delivered + kStreamBurst;
      sent_ += kStreamBurst;
      TransmitBatch(sut_.peer_dev, std::move(skbs));
      return PumpUntil([&] { return sut_.sut_rx.delivered >= target; }, deadline);
    }
  }
  return false;
}

// --- phases ---------------------------------------------------------------------

// Operation times in whole nanoseconds, counted in a table of fixed size that
// is allocated and written before set-up, so the harness's memory does not
// depend on how many operations a run makes.
class OpTimes {
 public:
  static constexpr uint64_t kSlots = uint64_t{1} << 20;  // 0 .. ~1 ms; slower ones in the last

  OpTimes() : counts_(kSlots, 0) {}
  void Add(std::chrono::nanoseconds t) {
    auto ns = static_cast<uint64_t>(std::max<int64_t>(0, t.count()));
    ++counts_[std::min(ns, kSlots - 1)];
    ++n_;
  }
  // The median in microseconds (the mean of the two middle times for an even
  // count).
  double MedianUs() const {
    if (n_ == 0) {
      return 0;
    }
    uint64_t lo_rank = (n_ - 1) / 2, hi_rank = n_ / 2;
    uint64_t seen = 0, lo = 0;
    for (uint64_t ns = 0; ns < kSlots; ++ns) {
      if (seen <= lo_rank && lo_rank < seen + counts_[ns]) {
        lo = ns;
      }
      seen += counts_[ns];
      if (hi_rank < seen) {
        return static_cast<double>(lo + ns) / 2 * 1e-3;
      }
    }
    return 0;
  }

 private:
  std::vector<uint32_t> counts_;
  uint64_t n_ = 0;
};

struct Phase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t pkts = 0;  // frames delivered during the phase
  double seconds = 0;

  Phase& operator+=(const Phase& other) {
    ops += other.ops;
    failed += other.failed;
    pkts += other.pkts;
    seconds += other.seconds;
    return *this;
  }
};

// Runs operations from `next_op` on for `seconds` or `max_ops`, whichever
// ends first; records each operation's time in `times` if given.
Phase RunPhase(Driver& driver, uint64_t* next_op, double seconds, uint64_t max_ops,
               OpTimes* times) {
  using Clock = std::chrono::steady_clock;
  Phase phase;
  uint64_t delivered0 = driver.Delivered();
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  Clock::time_point now = start;
  while (phase.ops < max_ops && now < end) {
    uint64_t k = (*next_op)++;
    Tracer::Get().set_op(static_cast<uint32_t>(k));
    Clock::time_point t0 = Clock::now();
    bool ok;
    {
      ScopedSpan op_span(Layer::kHarnessOp);
      ok = driver.Op(k);
    }
    now = Clock::now();
    if (times != nullptr) {
      times->Add(now - t0);
    }
    ++phase.ops;
    phase.failed += ok ? 0 : 1;
  }
  phase.seconds = std::chrono::duration<double>(now - start).count();
  phase.pkts = driver.Delivered() - delivered0;
  return phase;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Lets queued upcalls (TX completions, trailing interrupts) finish so the
// pool and the counters settle. Pumping sends no traffic and ticks no NIC.
void Drain(Sut& sut) {
  NetBench& b = *sut.bench;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (;;) {
    b.host->Pump();
    uint64_t pending = 0;
    for (uint16_t q = 0; q < b.nic_queues_; ++q) {
      pending += b.host->pending_upcalls(q);
    }
    if ((pending == 0 && b.ctx->pool().outstanding() == 0) ||
        std::chrono::steady_clock::now() > deadline) {
      return;
    }
  }
}

// The output and method checks of one drained bench; prints what failed.
bool CheckBench(Kind kind, Sut& sut, const Driver& driver,
                const sud::testing::ConservationLedger& before, const Counters& c0) {
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    ok = false;
  };
  Counters c1 = Snapshot(sut);
  auto delta = [&](const char* name) { return c1.Get(name) - c0.Get(name); };
  sud::testing::ConservationLedger d = sud::testing::CollectLedger(*sut.bench) - before;
  if (sut.sut_rx.mismatches + sut.peer_rx.mismatches != 0) {
    fail("delivered frames differ from the generated ones (or their order/pairing)");
  }
  if (kind == Kind::kRxFlowsMq && sut.sut_rx.digest != driver.sent_digest()) {
    fail("delivered flow digest differs from the sent one");
  }
  uint64_t sut_rx = kind == Kind::kUdpRr    ? driver.sent() / 2
                    : kind == Kind::kTxJumbo ? 0
                                             : driver.sent();
  uint64_t sut_tx = driver.sent() - sut_rx;
  if (d.rx_delivered != sut_rx || d.RxCountedLosses() != 0) {
    fail("rx conservation: sent " + std::to_string(sut_rx) + ", delivered " +
         std::to_string(d.rx_delivered) + ", counted losses " +
         std::to_string(d.RxCountedLosses()));
  }
  if (d.tx_accepted != sut_tx || d.tx_delivered != sut_tx || d.TxCountedLosses() != 0 ||
      d.tx_stack_dropped != 0) {
    fail("tx conservation: sent " + std::to_string(sut_tx) + ", delivered " +
         std::to_string(d.tx_delivered) + ", counted losses " +
         std::to_string(d.TxCountedLosses()));
  }
  if (delta("proxy.guard_copies") != d.rx_delivered) {
    fail("guard copies " + std::to_string(delta("proxy.guard_copies")) + " != delivered " +
         std::to_string(d.rx_delivered));
  }
  if (delta("sut.rx_bad_checksum") != 0 || delta("peer.rx_bad_checksum") != 0) {
    fail("bad checksums on delivered frames");
  }
  if (d.pool_outstanding != 0) {
    fail("pool outstanding " + std::to_string(d.pool_outstanding) + " after the drain");
  }
  return ok;
}

// One bench with its closed loop, the counters it started from and those
// after its warm-up.
struct Bench {
  std::unique_ptr<Sut> sut;
  std::unique_ptr<Driver> driver;
  sud::testing::ConservationLedger ledger0;
  Counters c0, warm;
  uint64_t next_op = 0;
  Phase all;  // every operation run on this bench

  Phase Run(double seconds, uint64_t max_ops, OpTimes* times) {
    Phase phase = RunPhase(*driver, &next_op, seconds, max_ops, times);
    all += phase;
    return phase;
  }
};

// Installs the receivers on a freshly set-up SUT and runs the warm-up.
std::unique_ptr<Bench> StartBench(std::unique_ptr<Sut> sut, Kind kind, const Inputs& in) {
  auto bench = std::make_unique<Bench>();
  InstallReceivers(*sut, in);
  bench->ledger0 = sud::testing::CollectLedger(*sut->bench);
  bench->c0 = Snapshot(*sut);
  bench->driver = std::make_unique<Driver>(kind, *sut, in);
  bench->sut = std::move(sut);
  bench->Run(1e9, kWarmupOps, nullptr);
  bench->warm = Snapshot(*bench->sut);
  return bench;
}

// Drains the bench and runs the output checks on it.
bool FinishBench(Bench& bench, Kind kind) {
  Drain(*bench.sut);
  return CheckBench(kind, *bench.sut, *bench.driver, bench.ledger0, bench.c0);
}

// What the warm-up changed in every counter.
Counters WarmupDelta(const Bench& bench) {
  Counters delta = bench.warm;
  for (size_t i = 0; i < delta.values.size(); ++i) {
    delta.values[i].second -= bench.c0.values[i].second;
  }
  return delta;
}

// Determinism: two benches of the same seed must end their warm-ups with
// every counter bit-identical.
bool SameWarmup(const Counters& a, const Counters& b, uint64_t seed) {
  bool same = true;
  for (size_t i = 0; i < a.values.size(); ++i) {
    if (a.values[i].second != b.values[i].second) {
      std::fprintf(stderr, "perfbench: check failed: %s differs between two runs of seed %llu: "
                   "%llu vs %llu\n", a.values[i].first, static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(a.values[i].second),
                   static_cast<unsigned long long>(b.values[i].second));
      same = false;
    }
  }
  return same;
}

// --- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- the run ----------------------------------------------------------------------

int Run(const Args& args) {
  Kind kind = args.kind;
  // Pumped dispatch runs on this thread alone. Left free, the scheduler moves
  // it between CPUs often enough on a shared host to slow whole runs by up to
  // 1.7x, so it stays on the CPU it started on.
  int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
  }
  Inputs in = GenerateInputs(kind, args.seed);
  OpTimes times;

  // Set-up, several times; the last bench is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Sut> sut;
  for (int i = 0; i < kSetups; ++i) {
    sut.reset();
    auto t0 = std::chrono::steady_clock::now();
    sut = Setup(kind, args.trace);
    setup_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  std::unique_ptr<Bench> main = StartBench(std::move(sut), kind, in);
  Counters main_warmup = WarmupDelta(*main);
  // A second, untraced bench of the same seed, for the determinism check. In
  // a traced run it also measures the untraced rate, in slices alternating
  // with the traced ones; otherwise it is built once the main bench is gone,
  // so the two never add up in peak_rss_mib.
  std::unique_ptr<Bench> replay;
  bool correct = true;
  auto start_replay = [&] {
    replay = StartBench(Setup(kind, false), kind, in);
    correct = SameWarmup(main_warmup, WarmupDelta(*replay), args.seed) && correct;
  };

  Phase timed, untraced;
  uint64_t traced_ns = 0;
  if (!args.trace) {
    timed = main->Run(args.seconds, UINT64_MAX, &times);
  } else {
    start_replay();
    double half = args.seconds / 2;
    for (double done = 0; done < half; done += kSliceSeconds) {
      double slice = std::min(kSliceSeconds, half - done);
      uint64_t w0 = Tracer::NowNs();
      Tracer::Get().Arm(kWrittenSpans);
      timed += main->Run(slice, UINT64_MAX, nullptr);
      Tracer::Get().Disarm();
      traced_ns += Tracer::NowNs() - w0;
      untraced += replay->Run(slice, UINT64_MAX, nullptr);
    }
  }
  Counters t0 = main->warm;
  Counters t1 = Snapshot(*main->sut);
  // Modeled cost covers every operation after set-up, warm-up included.
  double modeled = static_cast<double>((t1.Get("cpu.kernel_ns") - main->c0.Get("cpu.kernel_ns")) +
                                       (t1.Get("cpu.driver_ns") - main->c0.Get("cpu.driver_ns"))) /
                   static_cast<double>(std::max<uint64_t>(1, main->all.pkts));
  correct = FinishBench(*main, kind) && correct;
  if (args.trace && !args.trace_out.empty() && !Tracer::Get().WriteCsv(args.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
  }
  Phase main_ops = main->all;
  main.reset();
  if (replay == nullptr) {
    start_replay();
  }
  correct = FinishBench(*replay, kind) && correct;
  uint64_t attempted = main_ops.ops + replay->all.ops;
  uint64_t failed = main_ops.failed + replay->all.failed;

  double pkts_per_s = static_cast<double>(timed.pkts) / timed.seconds;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"host_pkts_per_s", pkts_per_s, "pkt/s"},
        {"host_op_p50_us", times.MedianUs(), "us"},
        {"modeled_cpu_ns_per_pkt", modeled, "model_ns"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
    };
  } else {
    const LayerTotals& totals = Tracer::Get().totals();
    double pkts = static_cast<double>(std::max<uint64_t>(1, timed.pkts));
    auto self = [&](Layer layer) {
      return static_cast<double>(totals.self_ns[static_cast<size_t>(layer)]) / pkts;
    };
    auto calls = [&](Layer layer) {
      return static_cast<double>(totals.calls[static_cast<size_t>(layer)]) / pkts;
    };
    auto per_pkt = [&](const char* name) {
      return static_cast<double>(t1.Get(name) - t0.Get(name)) / pkts;
    };
    double lookups = per_pkt("iotlb.hits") + per_pkt("iotlb.misses");
    double traced_s = static_cast<double>(traced_ns) * 1e-9;
    double self_sum_over_wall = static_cast<double>(totals.self_sum_ns) * 1e-9 / traced_s;
    if (std::fabs(self_sum_over_wall - 1.0) > kSelfSumTolerance) {
      std::fprintf(stderr, "perfbench: check failed: self times cover %.4f of the traced wall "
                   "time (tolerance %.2f)\n", self_sum_over_wall, kSelfSumTolerance);
      correct = false;
    }
    double untraced_pps = static_cast<double>(untraced.pkts) / untraced.seconds;
    metrics = {
        {"devices.rx_frame.self_ns_per_pkt", self(Layer::kDevicesRxFrame), "ns/pkt"},
        {"devices.desc_dma_per_pkt",
         per_pkt("nic.desc_fetch_dma") + per_pkt("nic.desc_writeback_dma"), "1/pkt"},
        {"devices.msi_per_pkt", per_pkt("msi.sut"), "1/pkt"},
        {"peer.rx_frame.self_ns_per_pkt", self(Layer::kPeerRxFrame), "ns/pkt"},
        {"drivers.self_ns_per_pkt",
         self(Layer::kDriversIrq) + self(Layer::kDriversXmit) + self(Layer::kDriversXmitChain) +
             self(Layer::kDriversCtl),
         "ns/pkt"},
        {"drivers.desc_windows_per_pkt", per_pkt("driver.desc_window_maps"), "1/pkt"},
        {"drivers.tx_desc_per_pkt", per_pkt("driver.tx_desc_queued"), "1/pkt"},
        {"drivers.free_batches_per_pkt", per_pkt("driver.free_batches"), "1/pkt"},
        {"uml.pump.self_ns_per_pkt", self(Layer::kUmlPump), "ns/pkt"},
    };
    const std::pair<const char*, Layer> env[] = {
        {"uml.env.netif_rx", Layer::kEnvNetifRx}, {"uml.env.mmio", Layer::kEnvMmio},
        {"uml.env.dma_view", Layer::kEnvDmaView}, {"uml.env.free_tx", Layer::kEnvFreeTx},
    };
    for (const auto& [name, layer] : env) {
      metrics.push_back({std::string(name) + ".self_ns_per_pkt", self(layer), "ns/pkt"});
      metrics.push_back({std::string(name) + ".calls_per_pkt", calls(layer), "1/pkt"});
    }
    std::vector<Metric> rest = {
        {"sud.uchan_crossings_per_pkt",
         per_pkt("uchan.downcall_batches") + per_pkt("uchan.wakeups"), "1/pkt"},
        {"sud.uchan_msgs_per_pkt",
         per_pkt("uchan.upcalls_sync") + per_pkt("uchan.upcalls_async") +
             per_pkt("uchan.downcalls_sync") + per_pkt("uchan.downcalls_async"),
         "1/pkt"},
        {"sud.uchan_wakeups_per_pkt", per_pkt("uchan.wakeups"), "1/pkt"},
        {"sud.guard_copies_per_pkt", per_pkt("proxy.guard_copies"), "1/pkt"},
        {"sud.irq_forwarded_per_pkt", per_pkt("irq.forwarded"), "1/pkt"},
        {"sud.irq_coalesced_per_pkt", per_pkt("irq.coalesced"), "1/pkt"},
        {"sud.ring_full_retries_per_pkt", per_pkt("uchan.ring_full_retries"), "1/pkt"},
        {"kern.transmit.self_ns_per_pkt", self(Layer::kKernTransmit), "ns/pkt"},
        {"kern.flow_probe_steps_per_pkt", per_pkt("flows.probe_steps"), "1/pkt"},
        {"kern.flow_inserts_per_pkt", per_pkt("flows.inserts"), "1/pkt"},
        {"hw.iotlb_lookups_per_pkt", lookups, "1/pkt"},
        {"hw.iotlb_hit_ratio", lookups > 0 ? per_pkt("iotlb.hits") / lookups : 0, "ratio"},
        {"hw.iotlb_invalidations_per_pkt", per_pkt("iotlb.invalidations"), "1/pkt"},
        {"base.cpu_kernel_ns_per_pkt", per_pkt("cpu.kernel_ns"), "ns/pkt"},
        {"base.cpu_driver_ns_per_pkt", per_pkt("cpu.driver_ns"), "ns/pkt"},
        {"harness.self_ns_per_pkt", self(Layer::kHarnessOp) + self(Layer::kHarnessCheck),
         "ns/pkt"},
        {"trace.traced_s", traced_s, "s"},
        {"trace.traced_pkts_per_s", pkts_per_s, "pkt/s"},
        {"trace.untraced_pkts_per_s", untraced_pps, "pkt/s"},
        {"trace.overhead_pct", 100.0 * (untraced_pps / pkts_per_s - 1.0), "%"},
        {"trace.self_sum_over_wall", self_sum_over_wall, "ratio"},
        {"trace.spans_per_pkt", static_cast<double>(totals.spans) / pkts, "1/pkt"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + flag);
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "rx_stream") {
        args.kind = Kind::kRxStream;
      } else if (value == "udp_rr") {
        args.kind = Kind::kUdpRr;
      } else if (value == "tx_jumbo") {
        args.kind = Kind::kTxJumbo;
      } else if (value == "rx_flows_mq") {
        args.kind = Kind::kRxFlowsMq;
      } else {
        Die("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0)) {
        Die("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    Die("--workload is required");
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}

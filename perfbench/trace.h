// Span tracing for the datapath benchmark, recorded from the benchmark's own
// files around the calls into each layer (nothing inside the program is
// instrumented):
//
//   * LinkShim        — a link endpoint in front of a receiving NIC
//                       (devices.rx_frame for the SUT NIC: its receive path,
//                       descriptor DMA, IOMMU translation and MSI raise;
//                       peer.rx_frame for the peer's NIC, driver and stack);
//   * TracedE1000e    — the e1000e driver with a DriverEnv decorator: its
//                       NetDriverOps and IRQ callbacks are `drivers.*` spans,
//                       the SUD-UML calls it makes are `uml.env.*` spans;
//   * ScopedSpan      — the benchmark's own spans around TransmitBatch
//                       (kern.transmit), DriverHost::Pump (uml.pump) and its
//                       own work (harness.*).
//
// Only the thread that armed the tracer records; under pumped dispatch every
// layer runs on it. Self time (a span's duration minus its direct
// children's) is summed per layer as each span closes, so a traced phase can
// run for any length. The first spans of the phase are also kept, each with
// its start, end, causing span (the enclosing one) and operation id, and
// written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/devices/ether_link.h"
#include "src/drivers/e1000e.h"
#include "src/uml/driver_env.h"

namespace perfbench {

enum class Layer : uint16_t {
  kHarnessOp,      // one operation, the root of every span
  kHarnessCheck,   // output check of one delivered frame
  kKernTransmit,   // NetSubsystem::TransmitBatch
  kDevicesRxFrame, // EtherEndpoint::DeliverFrame of the SUT NIC
  kPeerRxFrame,    // EtherEndpoint::DeliverFrame of the peer NIC
  kUmlPump,        // DriverHost::Pump
  kDriversIrq,     // the driver's interrupt handler
  kDriversXmit,    // NetDriverOps::xmit
  kDriversXmitChain,
  kDriversCtl,     // open/stop/ioctl
  kEnvNetifRx,     // NetifRx / NetifRxChain
  kEnvMmio,        // MmioRead32 / MmioWrite32
  kEnvDmaView,
  kEnvFreeTx,      // FreeTxBuffer / FreeTxBuffers
  kCount,
};

const char* LayerName(Layer layer);

// Per-layer sums over every span of one traced phase.
struct LayerTotals {
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> self_ns{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> calls{};
  uint64_t self_sum_ns = 0;  // over every layer
  uint64_t spans = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  // True on the thread that armed the tracer, while it is armed.
  static bool ArmedHere() { return armed_here_; }
  // Starts a traced phase on the calling thread, keeping its first
  // `kept_spans` spans. Totals and kept spans carry over from earlier phases.
  void Arm(size_t kept_spans);
  void Disarm() { armed_here_ = false; }

  void set_op(uint32_t op) { op_ = op; }
  void Open(Layer layer);
  void Close();

  const LayerTotals& totals() const { return totals_; }
  // Writes the kept spans as CSV; returns false on an I/O error.
  bool WriteCsv(const std::string& path) const;

  static uint64_t NowNs();

 private:
  static constexpr uint32_t kNotKept = 0xffffffffu;
  struct KeptSpan {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = kNotKept;
    uint32_t op = 0;
    Layer layer = Layer::kCount;
  };
  struct OpenSpan {
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t kept;
    Layer layer;
  };

  Tracer() = default;

  static thread_local bool armed_here_;
  uint32_t op_ = 0;
  size_t keep_ = 0;
  std::vector<KeptSpan> kept_;
  std::vector<OpenSpan> stack_;
  LayerTotals totals_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : open_(Tracer::ArmedHere()) {
    if (open_) {
      Tracer::Get().Open(layer);
    }
  }
  ~ScopedSpan() {
    if (open_) {
      Tracer::Get().Close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool open_;
};

// Sits between the link and a NIC and times the NIC's receive path, with
// everything it triggers synchronously, as `layer`.
class LinkShim : public sud::devices::EtherEndpoint {
 public:
  LinkShim(sud::devices::EtherEndpoint* nic, Layer layer) : nic_(nic), layer_(layer) {}
  void DeliverFrame(sud::ConstByteSpan frame) override {
    ScopedSpan span(layer_);
    nic_->DeliverFrame(frame);
  }

 private:
  sud::devices::EtherEndpoint* nic_;
  Layer layer_;
};

// DriverEnv decorator: forwards every call to the runtime the driver was
// probed against, wrapping the datapath calls and the callbacks the driver
// registers in spans.
class TracedEnv final : public sud::uml::DriverEnv {
 public:
  explicit TracedEnv(sud::uml::DriverEnv& inner) : inner_(inner) {}

  uint64_t Jiffies() override { return inner_.Jiffies(); }
  sud::Result<uint32_t> PciConfigRead(uint16_t offset, int width) override {
    return inner_.PciConfigRead(offset, width);
  }
  sud::Status PciConfigWrite(uint16_t offset, int width, uint32_t value) override {
    return inner_.PciConfigWrite(offset, width, value);
  }
  sud::Status PciEnableDevice() override { return inner_.PciEnableDevice(); }
  sud::Status PciSetMaster() override { return inner_.PciSetMaster(); }
  sud::Result<uint32_t> MmioRead32(int bar, uint64_t offset) override {
    ScopedSpan span(Layer::kEnvMmio);
    return inner_.MmioRead32(bar, offset);
  }
  sud::Status MmioWrite32(int bar, uint64_t offset, uint32_t value) override {
    ScopedSpan span(Layer::kEnvMmio);
    return inner_.MmioWrite32(bar, offset, value);
  }
  sud::Result<uint8_t> IoRead8(uint16_t port) override { return inner_.IoRead8(port); }
  sud::Status IoWrite8(uint16_t port, uint8_t value) override {
    return inner_.IoWrite8(port, value);
  }
  sud::Status RequestIoRegion() override { return inner_.RequestIoRegion(); }
  sud::Result<uint16_t> IoBarBase() override { return inner_.IoBarBase(); }
  sud::Result<sud::DmaRegion> DmaAllocCoherent(uint64_t bytes) override {
    return inner_.DmaAllocCoherent(bytes);
  }
  sud::Result<sud::DmaRegion> DmaAllocCaching(uint64_t bytes) override {
    return inner_.DmaAllocCaching(bytes);
  }
  sud::Result<sud::ByteSpan> DmaView(uint64_t iova, uint64_t len) override {
    ScopedSpan span(Layer::kEnvDmaView);
    return inner_.DmaView(iova, len);
  }
  sud::Status RequestIrq(std::function<void()> handler) override;
  sud::Status RequestQueueIrqs(uint16_t num_queues,
                               std::function<void(uint16_t)> handler) override;
  sud::Status FreeIrq() override { return inner_.FreeIrq(); }
  // e1000e never calls this under SUD: UmlRuntime acks each interrupt
  // upcall itself once the handler returns (that time is uml.pump's).
  sud::Status InterruptAck() override { return inner_.InterruptAck(); }
  sud::Status RegisterNetdev(const uint8_t mac[6], sud::uml::NetDriverOps ops) override;
  sud::Status NetifRx(uint64_t frame_iova, uint32_t len, uint16_t queue) override {
    ScopedSpan span(Layer::kEnvNetifRx);
    return inner_.NetifRx(frame_iova, len, queue);
  }
  sud::Status NetifRxChain(const std::vector<sud::uml::DmaFrag>& frags,
                           uint16_t queue) override {
    ScopedSpan span(Layer::kEnvNetifRx);
    return inner_.NetifRxChain(frags, queue);
  }
  void NetifCarrierOn() override { inner_.NetifCarrierOn(); }
  void NetifCarrierOff() override { inner_.NetifCarrierOff(); }
  void FreeTxBuffer(int32_t pool_buffer_id) override {
    ScopedSpan span(Layer::kEnvFreeTx);
    inner_.FreeTxBuffer(pool_buffer_id);
  }
  void FreeTxBuffers(uint16_t queue, const std::vector<int32_t>& pool_buffer_ids) override {
    ScopedSpan span(Layer::kEnvFreeTx);
    inner_.FreeTxBuffers(queue, pool_buffer_ids);
  }
  sud::Status RegisterWifi(uint32_t supported_features, sud::uml::WifiDriverOps ops) override {
    return inner_.RegisterWifi(supported_features, std::move(ops));
  }
  void WifiBssChange(bool associated) override { inner_.WifiBssChange(associated); }
  void WifiSetBitrates(const std::vector<uint32_t>& rates) override {
    inner_.WifiSetBitrates(rates);
  }
  sud::Status RegisterAudio(sud::uml::AudioDriverOps ops) override {
    return inner_.RegisterAudio(std::move(ops));
  }
  void AudioPeriodElapsed() override { inner_.AudioPeriodElapsed(); }
  void SubmitKeyEvent(uint8_t usage_code) override { inner_.SubmitKeyEvent(usage_code); }

 private:
  sud::uml::DriverEnv& inner_;
};

// The unmodified e1000e driver, probed against a TracedEnv. Deriving (rather
// than wrapping) keeps DriverHost::driver() an E1000eDriver, which the
// harness's conservation ledger reads the driver counters through.
class TracedE1000e final : public sud::drivers::E1000eDriver {
 public:
  using E1000eDriver::E1000eDriver;
  sud::Status Probe(sud::uml::DriverEnv& env) override {
    traced_env_ = std::make_unique<TracedEnv>(env);
    return E1000eDriver::Probe(*traced_env_);
  }
  void Remove(sud::uml::DriverEnv& env) override {
    E1000eDriver::Remove(traced_env_ != nullptr ? *traced_env_ : env);
  }

 private:
  std::unique_ptr<TracedEnv> traced_env_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

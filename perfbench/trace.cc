#include "perfbench/trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHarnessOp: return "harness.op";
    case Layer::kHarnessCheck: return "harness.check";
    case Layer::kKernTransmit: return "kern.transmit";
    case Layer::kDevicesRxFrame: return "devices.rx_frame";
    case Layer::kPeerRxFrame: return "peer.rx_frame";
    case Layer::kUmlPump: return "uml.pump";
    case Layer::kDriversIrq: return "drivers.irq";
    case Layer::kDriversXmit: return "drivers.xmit";
    case Layer::kDriversXmitChain: return "drivers.xmit_chain";
    case Layer::kDriversCtl: return "drivers.ctl";
    case Layer::kEnvNetifRx: return "uml.env.netif_rx";
    case Layer::kEnvMmio: return "uml.env.mmio";
    case Layer::kEnvDmaView: return "uml.env.dma_view";
    case Layer::kEnvFreeTx: return "uml.env.free_tx";
    case Layer::kCount: break;
  }
  return "?";
}

thread_local bool Tracer::armed_here_ = false;

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Tracer::Arm(size_t kept_spans) {
  keep_ = kept_spans;
  kept_.reserve(keep_);
  stack_.reserve(64);
  armed_here_ = true;
}

void Tracer::Open(Layer layer) {
  uint64_t now = NowNs();
  uint32_t kept = kNotKept;
  if (kept_.size() < keep_) {
    // A kept span's parent was opened earlier, so it is kept too.
    kept = static_cast<uint32_t>(kept_.size());
    kept_.push_back({now, 0, stack_.empty() ? kNotKept : stack_.back().kept, op_, layer});
  }
  stack_.push_back({now, 0, kept, layer});
}

void Tracer::Close() {
  uint64_t now = NowNs();
  OpenSpan span = stack_.back();
  stack_.pop_back();
  uint64_t duration = now - span.start_ns;
  uint64_t self = duration > span.child_ns ? duration - span.child_ns : 0;
  auto layer = static_cast<size_t>(span.layer);
  totals_.self_ns[layer] += self;
  totals_.calls[layer] += 1;
  totals_.self_sum_ns += self;
  totals_.spans += 1;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (span.kept != kNotKept) {
    kept_[span.kept].end_ns = now;
  }
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "span,name,start_ns,end_ns,parent,op\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const KeptSpan& span = kept_[i];
    long long parent = span.parent == kNotKept ? -1 : static_cast<long long>(span.parent);
    std::fprintf(out, "%zu,%s,%llu,%llu,%lld,%u\n", i, LayerName(span.layer),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), parent, span.op);
  }
  return std::fclose(out) == 0;
}

sud::Status TracedEnv::RequestIrq(std::function<void()> handler) {
  return inner_.RequestIrq([handler = std::move(handler)]() {
    ScopedSpan span(Layer::kDriversIrq);
    handler();
  });
}

sud::Status TracedEnv::RequestQueueIrqs(uint16_t num_queues,
                                        std::function<void(uint16_t)> handler) {
  return inner_.RequestQueueIrqs(num_queues, [handler = std::move(handler)](uint16_t queue) {
    ScopedSpan span(Layer::kDriversIrq);
    handler(queue);
  });
}

sud::Status TracedEnv::RegisterNetdev(const uint8_t mac[6], sud::uml::NetDriverOps ops) {
  if (ops.open) {
    ops.open = [f = std::move(ops.open)]() {
      ScopedSpan span(Layer::kDriversCtl);
      return f();
    };
  }
  if (ops.stop) {
    ops.stop = [f = std::move(ops.stop)]() {
      ScopedSpan span(Layer::kDriversCtl);
      return f();
    };
  }
  if (ops.ioctl) {
    ops.ioctl = [f = std::move(ops.ioctl)](uint32_t cmd) {
      ScopedSpan span(Layer::kDriversCtl);
      return f(cmd);
    };
  }
  if (ops.xmit) {
    ops.xmit = [f = std::move(ops.xmit)](uint64_t iova, uint32_t len, int32_t pool_buffer_id,
                                         uint16_t queue) {
      ScopedSpan span(Layer::kDriversXmit);
      return f(iova, len, pool_buffer_id, queue);
    };
  }
  if (ops.xmit_chain) {
    ops.xmit_chain = [f = std::move(ops.xmit_chain)](const std::vector<sud::uml::TxFrag>& frags,
                                                     uint16_t queue) {
      ScopedSpan span(Layer::kDriversXmitChain);
      return f(frags, queue);
    };
  }
  return inner_.RegisterNetdev(mac, std::move(ops));
}

}  // namespace perfbench

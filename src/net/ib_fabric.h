// InfiniBand fabric model (the paper's Mellanox M3601Q QDR switch).
// Key behaviours the migration mechanism depends on:
//   - LIDs are reassigned on every attach: after a VM's HCA is hot
//     re-attached, peers holding the old LID have a stale address;
//   - queue pair numbers restart when the driver re-initializes, so saved
//     QP state is equally stale (why Open MPI must rebuild BTL modules);
//   - link training after (re-)attach takes ~30 s (Table II's "link-up").
#pragma once

#include <cstdint>
#include <map>

#include "net/fabric.h"

namespace nm::net {

struct IbFabricConfig {
  /// QDR 4x: 40 Gb/s signalling, 32 Gb/s data rate after 8b/10b.
  Bandwidth data_rate = Bandwidth::gbps(32);
  Duration latency = Duration::micros(2);
  /// Port training time observed by the paper after HCA re-attach.
  Duration linkup_time = Duration::seconds(29.9);
};

class IbFabric : public Fabric {
 public:
  IbFabric(sim::FluidNet& net, std::string name, IbFabricConfig config = {});

  [[nodiscard]] const IbFabricConfig& config() const { return config_; }

  /// A reliable-connected queue pair endpoint as seen by a verbs consumer.
  struct QueuePair {
    std::uint32_t qpn = 0;
    FabricAddress local_lid = kInvalidAddress;
  };

  /// Allocates the next QPN on `att`'s HCA. QPN allocation restarts when
  /// the attachment is detached and re-attached (driver re-init).
  QueuePair create_queue_pair(const AttachmentPtr& att);

  /// Destroys all QPs of an attachment (pre-checkpoint resource release).
  void destroy_queue_pairs(const AttachmentPtr& att);

  /// Number of live QPs on an attachment (tests & invariants).
  [[nodiscard]] std::size_t queue_pair_count(const AttachmentPtr& att) const;

  /// VMM-bypass RDMA transfer: no CPU cost on either node.
  [[nodiscard]] sim::Task rdma_transfer(AttachmentPtr src, FabricAddress dst_lid, Bytes bytes);

 private:
  struct QpState {
    std::uint32_t next_qpn = 1;
    std::size_t live = 0;
    std::uint64_t epoch = 0;
  };
  IbFabricConfig config_;
  std::map<const Attachment*, QpState> qp_state_;

  QpState& state_for(const AttachmentPtr& att);
};

}  // namespace nm::net

// The modelled AGC testbed (paper Table I): 16 Dell M610 blades in one
// enclosure — 8 on the QDR InfiniBand switch (M3601Q) + all 16 on the
// 10 GbE switch (M8024) — NFS shared storage, one QEMU/KVM host per blade.
//
// Testbed is the composition root: it owns the simulation, the FluidNet,
// fabrics, nodes, ports, and hosts, and provides the host-name resolver
// used by monitors and the cloud scheduler. Every resource of the
// enclosure registers in one fluid domain (the zone domain): the blades
// all share the 10 GbE switch and the NFS store, so the enclosure is one
// connected fluid topology. Standalone, that zone is the net's domain 0;
// under a federation it is the federation's one domain, shared by every
// site (core/federation.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "net/clos_fabric.h"
#include "net/eth_fabric.h"
#include "net/ib_fabric.h"
#include "net/port.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"
#include "vmm/host.h"
#include "vmm/storage.h"

namespace nm::core {

struct TestbedConfig {
  int ib_nodes = 8;   // blades with both IB HCA and 10 GbE
  int eth_nodes = 8;  // blades with 10 GbE only
  hw::NodeSpec blade_spec;  // name is per-node; other fields are defaults
  net::IbFabricConfig ib;
  net::EthFabricConfig eth;
  vmm::HotplugTiming hotplug;
  vmm::MigrationConfig migration;
  /// Intra-site Ethernet topology. Disabled (the default) keeps the flat
  /// single-switch enclosure byte-identical to the seed; enabled builds a
  /// net::ClosFabric behind the Ethernet fabric and assigns blade i to
  /// leaf i / hosts_per_leaf in boot order (ib blades first). host_rate
  /// should match eth.line_rate; the fabric must have at least
  /// ib_nodes + eth_nodes host ports. The IB fabric stays flat — the
  /// paper's M3601Q is a single non-blocking switch.
  net::ClosConfig clos;
  /// SR-IOV virtual functions per HCA (1 = plain PCI passthrough).
  int hca_vfs = 1;
  /// Number of fluid domains (shards) a standalone testbed's FluidNet
  /// starts with. The whole (fully connected) enclosure lands on domain 0;
  /// the remaining shards are free for caller-built disjoint zones.
  /// Timelines are bit-identical at every shard count (sim_sharding_test
  /// pins this). Ignored under a federation, whose sites share one domain.
  int fluid_shards = 1;
  /// Worker threads in the FluidNet's SolvePool, which settles dirty fluid
  /// components at the end of each simulated instant. 0 (default) creates no
  /// threads: the simulation thread solves every batch itself. Any worker
  /// count yields the same event timeline — the pool commits in canonical
  /// (domain, component) order (sim_sharding_test pins this).
  int solve_workers = 0;
  std::uint64_t seed = 1;

  TestbedConfig() {
    blade_spec.cores = 8.0;                       // 2x quad-core Xeon E5540
    blade_spec.memory = Bytes::gib(48);           // DDR3-1066
    blade_spec.mem_write_bw = Bandwidth::gib_per_sec(3.0);
  }
};

class Testbed {
 public:
  /// Standalone testbed: owns its Simulation, FluidNet and NFS storage.
  explicit Testbed(TestbedConfig config = {});
  /// Federated testbed: builds the same enclosure inside `zone`, a domain
  /// of an externally owned net (one shared clock and one fluid domain
  /// across sites; see core/federation.h). Every fabric, host and node name
  /// is prefixed with "<site>:" so the sites' namespaces stay disjoint, and
  /// `shared_storage` (when given) is mounted instead of a private NFS
  /// store — cross-site migration requires the shared mount. The config's
  /// `fluid_shards`, `solve_workers` and `seed` are ignored here: all three
  /// belong to the federation.
  Testbed(TestbedConfig config, sim::FluidScheduler& zone, std::string site,
          vmm::SharedStorage* shared_storage = nullptr);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] const TestbedConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& sim() { return *sim_; }
  /// The one flow entry point and owner of every fluid domain: routes a
  /// FlowSpec to the domain owning its resources.
  [[nodiscard]] sim::FluidNet& net() { return *net_; }
  [[nodiscard]] net::IbFabric& ib_fabric() { return *ib_fabric_; }
  [[nodiscard]] net::EthFabric& eth_fabric() { return *eth_fabric_; }
  /// The intra-site Clos topology behind the Ethernet fabric; nullptr for
  /// the flat seed enclosure.
  [[nodiscard]] net::ClosFabric* clos() { return clos_.get(); }
  /// Leaf of `host`'s Ethernet uplink; ClosFabric::kSpineAttach when flat.
  [[nodiscard]] int leaf_of(vmm::Host& host);
  [[nodiscard]] vmm::SharedStorage& storage() { return *storage_; }
  /// The domain holding every resource of this testbed: domain 0
  /// standalone, the federation's one domain under a federation.
  [[nodiscard]] sim::FluidScheduler& zone_domain() { return *zone_; }
  /// "<site>:" under a federation, empty standalone.
  [[nodiscard]] const std::string& name_prefix() const { return prefix_; }

  [[nodiscard]] int ib_host_count() const { return config_.ib_nodes; }
  [[nodiscard]] int eth_host_count() const { return config_.eth_nodes; }
  /// Host on the InfiniBand cluster ("ib0".."ib7").
  [[nodiscard]] vmm::Host& ib_host(int i);
  /// Host on the Ethernet-only cluster ("eth0".."eth7").
  [[nodiscard]] vmm::Host& eth_host(int i);
  [[nodiscard]] vmm::Host* find_host(const std::string& name);
  [[nodiscard]] std::vector<vmm::Host*> all_hosts();

  /// The PCI address every blade's HCA sits at (paper Fig 5).
  static constexpr const char* kHcaPciAddr = "04:00.0";

  /// Boots a VM on `host` with a virtio NIC; when `with_hca` is true the
  /// host's HCA is assigned at boot (no hotplug latency; link training
  /// still applies, so allow ~30 s of simulated time before traffic).
  std::shared_ptr<vmm::Vm> boot_vm(vmm::Host& host, vmm::VmSpec spec, bool with_hca);

  /// Lets every boot-time link finish training.
  void settle();

 private:
  /// Everything after simulation/net/zone wiring: storage (when not
  /// shared), fabrics, blades, hosts. Identical for both ownership modes so
  /// a standalone and a federated site are byte-for-byte the same
  /// enclosure.
  void build();

  TestbedConfig config_;
  // Standalone mode owns these; a federated testbed aliases the
  // federation's. Declared net-after-sim so destruction tears down the pool
  // (joining workers, removing the kernel hook) while the simulation is
  // alive — same invariant as before the Federation split.
  std::unique_ptr<sim::Simulation> owned_sim_;
  std::unique_ptr<sim::FluidNet> owned_net_;
  sim::Simulation* sim_ = nullptr;
  sim::FluidNet* net_ = nullptr;
  sim::FluidScheduler* zone_ = nullptr;
  std::string prefix_;
  std::unique_ptr<vmm::SharedStorage> owned_storage_;
  vmm::SharedStorage* storage_ = nullptr;
  std::unique_ptr<net::IbFabric> ib_fabric_;
  std::unique_ptr<net::EthFabric> eth_fabric_;
  std::unique_ptr<net::ClosFabric> clos_;
  hw::Cluster ib_cluster_;
  hw::Cluster eth_cluster_;
  std::vector<std::unique_ptr<net::NicPort>> ports_;
  std::vector<std::unique_ptr<vmm::Host>> hosts_;
};

}  // namespace nm::core

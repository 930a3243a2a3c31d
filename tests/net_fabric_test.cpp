// Tests for the fabric layer: attachment lifecycle, link training, address
// stability semantics (LID vs IP), QP allocation, transfers with CPU cost,
// and stale-address failures after re-attach.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/node.h"
#include "net/clos_fabric.h"
#include "net/eth_fabric.h"
#include "net/fabric.h"
#include "net/ib_fabric.h"
#include "net/port.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"

namespace nm::net {
namespace {

struct TestBed {
  sim::Simulation sim;
  sim::FluidNet net{sim};
  sim::FluidScheduler& sched = net.add_domain("d");
  std::vector<std::unique_ptr<hw::Node>> nodes;
  std::vector<std::unique_ptr<NicPort>> ports;

  hw::Node& add_node(const std::string& name, double cores = 8.0) {
    hw::NodeSpec spec;
    spec.name = name;
    spec.cores = cores;
    nodes.push_back(std::make_unique<hw::Node>(sched, spec));
    return *nodes.back();
  }
  NicPort& add_port(hw::Node& node, const std::string& name, Bandwidth rate) {
    ports.push_back(std::make_unique<NicPort>(node, name, rate));
    return *ports.back();
  }
};

TEST(Fabric, AttachTrainsThenActive) {
  TestBed tb;
  IbFabricConfig cfg;
  cfg.linkup_time = Duration::seconds(29.9);
  IbFabric ib(tb.net, "ib0", cfg);
  auto& node = tb.add_node("n0");
  auto& port = tb.add_port(node, "n0-hca", cfg.data_rate);

  auto att = ib.attach(port);
  EXPECT_EQ(att->state(), LinkState::kPolling);
  EXPECT_NE(att->address(), kInvalidAddress);

  double active_at = -1;
  tb.sim.spawn([](sim::Simulation& s, AttachmentPtr a, double& t) -> sim::Task {
    co_await a->wait_active();
    t = s.now().to_seconds();
  }(tb.sim, att, active_at));
  tb.sim.run();
  EXPECT_EQ(att->state(), LinkState::kActive);
  EXPECT_NEAR(active_at, 29.9, 1e-9);
}

TEST(Fabric, EthernetLinkUpIsImmediate) {
  TestBed tb;
  EthFabric eth(tb.net, "eth0");
  auto& node = tb.add_node("n0");
  auto& port = tb.add_port(node, "n0-eth", Bandwidth::gbps(10));
  auto att = eth.attach(port);
  tb.sim.run();
  EXPECT_EQ(att->state(), LinkState::kActive);
  EXPECT_DOUBLE_EQ(tb.sim.now().to_seconds(), 0.0);
}

TEST(Fabric, DetachInvalidatesLid) {
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& node = tb.add_node("n0");
  auto& port = tb.add_port(node, "n0-hca", Bandwidth::gbps(32));
  auto att = ib.attach(port);
  const auto lid = att->address();
  tb.sim.run();
  ib.detach(att);
  EXPECT_EQ(att->state(), LinkState::kDown);
  EXPECT_EQ(att->address(), kInvalidAddress);
  EXPECT_EQ(ib.find(lid), nullptr);
}

TEST(Fabric, ReattachAssignsFreshLid) {
  // The paper relies on Open MPI tolerating changed LIDs after migration.
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& node = tb.add_node("n0");
  auto& port = tb.add_port(node, "n0-hca", Bandwidth::gbps(32));
  auto att1 = ib.attach(port);
  const auto lid1 = att1->address();
  tb.sim.run();
  ib.detach(att1);
  auto att2 = ib.attach(port);
  tb.sim.run();
  EXPECT_NE(att2->address(), lid1);
  EXPECT_EQ(att2->state(), LinkState::kActive);
}

TEST(Fabric, DetachDuringTrainingNeverActivates) {
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& node = tb.add_node("n0");
  auto& port = tb.add_port(node, "n0-hca", Bandwidth::gbps(32));
  auto att = ib.attach(port);
  tb.sim.run_for(Duration::seconds(1.0));
  ib.detach(att);
  tb.sim.run();
  EXPECT_EQ(att->state(), LinkState::kDown);
}

TEST(Fabric, EthRebindKeepsAddressAcrossHosts) {
  TestBed tb;
  EthFabric eth(tb.net, "eth0");
  auto& src_host = tb.add_node("src");
  auto& dst_host = tb.add_node("dst");
  auto& src_port = tb.add_port(src_host, "src-eth", Bandwidth::gbps(10));
  auto& dst_port = tb.add_port(dst_host, "dst-eth", Bandwidth::gbps(10));

  auto att = eth.attach(src_port);
  tb.sim.run();
  const auto ip = att->address();
  eth.detach(att);
  EXPECT_EQ(att->address(), ip);  // stable address survives detach
  eth.rebind(att, dst_port);
  tb.sim.run();
  EXPECT_EQ(att->address(), ip);
  EXPECT_EQ(att->state(), LinkState::kActive);
  EXPECT_EQ(&att->port(), &dst_port);
  EXPECT_EQ(eth.find(ip), att);
}

TEST(Fabric, RebindOnIbRejected) {
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& node = tb.add_node("n0");
  auto& port = tb.add_port(node, "hca", Bandwidth::gbps(32));
  auto att = ib.attach(port);
  EXPECT_THROW(ib.rebind(att, port), LogicError);
}

TEST(Fabric, TransferTimeMatchesLineRate) {
  TestBed tb;
  EthFabricConfig cfg;
  cfg.latency = Duration::micros(30);
  EthFabric eth(tb.net, "eth0", cfg);
  auto& a = tb.add_node("a");
  auto& b = tb.add_node("b");
  auto& pa = tb.add_port(a, "a-eth", Bandwidth::gbps(10));
  auto& pb = tb.add_port(b, "b-eth", Bandwidth::gbps(10));
  auto aa = eth.attach(pa);
  auto ab = eth.attach(pb);
  tb.sim.run();

  double done_at = -1;
  tb.sim.spawn([](sim::Simulation& s, EthFabric& f, AttachmentPtr src, FabricAddress dst,
                  double& t) -> sim::Task {
    co_await f.transfer(src, dst, Bytes::gib(1));
    t = s.now().to_seconds();
  }(tb.sim, eth, aa, ab->address(), done_at));
  tb.sim.run();
  // 1 GiB at 1.25e9 B/s + 30 us latency.
  const double expect = 1073741824.0 / 1.25e9 + 30e-6;
  EXPECT_NEAR(done_at, expect, 1e-6);
}

TEST(Fabric, TransferChargesCpu) {
  // With a per-byte CPU cost and a nearly idle CPU, the rate is CPU-bound.
  TestBed tb;
  EthFabric eth(tb.net, "eth0");
  auto& a = tb.add_node("a", /*cores=*/1.0);
  auto& b = tb.add_node("b", /*cores=*/8.0);
  auto& pa = tb.add_port(a, "a-eth", Bandwidth::gbps(10));
  auto& pb = tb.add_port(b, "b-eth", Bandwidth::gbps(10));
  auto aa = eth.attach(pa);
  auto ab = eth.attach(pb);
  tb.sim.run();

  // 1 core / (4e8 B/s per core) -> transfer capped at 400 MB/s < 1.25 GB/s.
  TransferOptions opts;
  opts.src_cpu_per_byte = 1.0 / 4e8;
  double done_at = -1;
  tb.sim.spawn([](sim::Simulation& s, EthFabric& f, AttachmentPtr src, FabricAddress dst,
                  TransferOptions o, double& t) -> sim::Task {
    co_await f.transfer(src, dst, Bytes(400'000'000), o);
    t = s.now().to_seconds();
  }(tb.sim, eth, aa, ab->address(), opts, done_at));
  tb.sim.run();
  EXPECT_NEAR(done_at, 1.0, 1e-3);
}

TEST(Fabric, TransferMaxRateCap) {
  // QEMU's single-threaded migration: capped well below 10 GbE line rate.
  TestBed tb;
  EthFabric eth(tb.net, "eth0");
  auto& a = tb.add_node("a");
  auto& b = tb.add_node("b");
  auto& pa = tb.add_port(a, "a-eth", Bandwidth::gbps(10));
  auto& pb = tb.add_port(b, "b-eth", Bandwidth::gbps(10));
  auto aa = eth.attach(pa);
  auto ab = eth.attach(pb);
  tb.sim.run();

  TransferOptions opts;
  opts.max_rate = Bandwidth::gbps(1.3).bytes_per_second();
  double done_at = -1;
  tb.sim.spawn([](sim::Simulation& s, EthFabric& f, AttachmentPtr src, FabricAddress dst,
                  TransferOptions o, double& t) -> sim::Task {
    co_await f.transfer(src, dst, Bytes::gib(1), o);
    t = s.now().to_seconds();
  }(tb.sim, eth, aa, ab->address(), opts, done_at));
  tb.sim.run();
  EXPECT_NEAR(done_at, 1073741824.0 / (1.3e9 / 8.0), 1e-3);
}

TEST(Fabric, TransferToStaleLidFails) {
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& a = tb.add_node("a");
  auto& b = tb.add_node("b");
  auto& pa = tb.add_port(a, "a-hca", Bandwidth::gbps(32));
  auto& pb = tb.add_port(b, "b-hca", Bandwidth::gbps(32));
  auto aa = ib.attach(pa);
  auto ab = ib.attach(pb);
  tb.sim.run();
  const auto stale_lid = ab->address();
  ib.detach(ab);
  (void)ib.attach(pb);  // fresh LID
  tb.sim.run();

  bool failed = false;
  tb.sim.spawn([](IbFabric& f, AttachmentPtr src, FabricAddress dst, bool& fail) -> sim::Task {
    try {
      co_await f.rdma_transfer(src, dst, Bytes::mib(1));
    } catch (const OperationError&) {
      fail = true;
    }
  }(ib, aa, stale_lid, failed));
  tb.sim.run();
  EXPECT_TRUE(failed);
}

TEST(Fabric, TransferFromInactiveLinkFails) {
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& a = tb.add_node("a");
  auto& pa = tb.add_port(a, "a-hca", Bandwidth::gbps(32));
  auto aa = ib.attach(pa);  // still POLLING
  bool failed = false;
  tb.sim.spawn([](IbFabric& f, AttachmentPtr src, bool& fail) -> sim::Task {
    try {
      co_await f.rdma_transfer(src, src->address(), Bytes::mib(1));
    } catch (const OperationError&) {
      fail = true;
    }
  }(ib, aa, failed));
  tb.sim.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(failed);
}

TEST(IbFabric, QueuePairNumbersRestartAfterReattach) {
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& a = tb.add_node("a");
  auto& pa = tb.add_port(a, "a-hca", Bandwidth::gbps(32));
  auto att = ib.attach(pa);
  tb.sim.run();

  auto qp1 = ib.create_queue_pair(att);
  auto qp2 = ib.create_queue_pair(att);
  EXPECT_EQ(qp1.qpn, 1u);
  EXPECT_EQ(qp2.qpn, 2u);
  EXPECT_EQ(ib.queue_pair_count(att), 2u);

  ib.detach(att);
  EXPECT_EQ(ib.queue_pair_count(att), 0u);
  auto att2 = ib.attach(pa);
  tb.sim.run();
  auto qp3 = ib.create_queue_pair(att2);
  EXPECT_EQ(qp3.qpn, 1u);  // QPN space restarted
  EXPECT_NE(qp3.local_lid, qp1.local_lid);
}

TEST(IbFabric, QpCreationRequiresActiveLink) {
  TestBed tb;
  IbFabric ib(tb.net, "ib0");
  auto& a = tb.add_node("a");
  auto& pa = tb.add_port(a, "a-hca", Bandwidth::gbps(32));
  auto att = ib.attach(pa);  // POLLING
  EXPECT_THROW((void)ib.create_queue_pair(att), OperationError);
}

TEST(Fabric, ConcurrentTransfersShareNicFairly) {
  // Two 1 GiB incasts into the same receiver: rx is the bottleneck, each
  // flow gets half, both finish together at ~2x single-flow time.
  TestBed tb;
  EthFabric eth(tb.net, "eth0");
  auto& a = tb.add_node("a");
  auto& b = tb.add_node("b");
  auto& c = tb.add_node("c");
  auto& pa = tb.add_port(a, "a-eth", Bandwidth::gbps(10));
  auto& pb = tb.add_port(b, "b-eth", Bandwidth::gbps(10));
  auto& pc = tb.add_port(c, "c-eth", Bandwidth::gbps(10));
  auto aa = eth.attach(pa);
  auto ab = eth.attach(pb);
  auto ac = eth.attach(pc);
  tb.sim.run();

  std::vector<double> done(2, -1);
  auto sender = [](sim::Simulation& s, EthFabric& f, AttachmentPtr src, FabricAddress dst,
                   double& t) -> sim::Task {
    co_await f.transfer(src, dst, Bytes::gib(1));
    t = s.now().to_seconds();
  };
  tb.sim.spawn(sender(tb.sim, eth, aa, ac->address(), done[0]));
  tb.sim.spawn(sender(tb.sim, eth, ab, ac->address(), done[1]));
  tb.sim.run();
  const double single = 1073741824.0 / 1.25e9;
  EXPECT_NEAR(done[0], 2 * single, 1e-3);
  EXPECT_NEAR(done[1], 2 * single, 1e-3);
}

TEST(ClosTopology, IncastSharesLeafDownlinkFairly) {
  // 4 senders on 4 distinct leaves, 4 receivers racked under one leaf:
  // with a single spine every flow crosses the destination leaf's one
  // downlink (1.25e9 B/s), so max-min gives each exactly a quarter of it.
  // Brute force: share = downlink / 4; per-flow uplinks (one flow each)
  // and 10 GbE NICs are strictly faster and never bind.
  TestBed tb;
  EthFabricConfig cfg;
  cfg.latency = Duration::micros(10);
  EthFabric eth(tb.net, "eth0", cfg);
  ClosConfig ccfg;
  ccfg.leaves = 5;
  ccfg.spines = 1;
  ccfg.hosts_per_leaf = 4;
  ccfg.oversubscription = 4.0;  // uplink = 4 * 1.25e9 / 4 = 1.25e9 B/s
  ClosFabric clos(tb.sched, "clos0", ccfg);
  eth.set_topology(&clos);

  std::vector<AttachmentPtr> senders;
  std::vector<AttachmentPtr> receivers;
  for (int i = 0; i < 4; ++i) {
    // Lvalue index: the `const char* + string&&` overload trips a GCC 12
    // -Wrestrict false positive under -O3 inlining.
    const std::string idx = std::to_string(i);
    auto& sn = tb.add_node("s" + idx);
    auto& sp = tb.add_port(sn, "s" + idx + "-eth", Bandwidth::gbps(10));
    clos.assign_port(sp, i);
    senders.push_back(eth.attach(sp));
    auto& rn = tb.add_node("r" + idx);
    auto& rp = tb.add_port(rn, "r" + idx + "-eth", Bandwidth::gbps(10));
    clos.assign_port(rp, 4);
    receivers.push_back(eth.attach(rp));
  }
  tb.sim.run();

  std::vector<double> done(4, -1);
  auto sender = [](sim::Simulation& s, EthFabric& f, AttachmentPtr src, FabricAddress dst,
                   double& t) -> sim::Task {
    co_await f.transfer(src, dst, Bytes::gib(1));
    t = s.now().to_seconds();
  };
  for (int i = 0; i < 4; ++i) {
    tb.sim.spawn(sender(tb.sim, eth, senders[i], receivers[i]->address(), done[i]));
  }
  tb.sim.run();
  const double share = 1.25e9 / 4.0;
  const double expect = 1073741824.0 / share + 10e-6;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(done[i], expect, 1e-9) << "flow " << i;
  }
}

TEST(ClosTopology, IncastMaxMinRedistributesAroundCappedFlow) {
  // Same incast, but flow 0 is rate-capped at 1e8 B/s — far below its
  // fair quarter. Max-min hands its slack to the other three: brute
  // force share = (downlink - cap) / 3 each, and those three rates are
  // constant until they finish (flow 0 stays at its cap throughout), so
  // the completion times are exact.
  TestBed tb;
  EthFabricConfig cfg;
  cfg.latency = Duration::micros(10);
  EthFabric eth(tb.net, "eth0", cfg);
  ClosConfig ccfg;
  ccfg.leaves = 5;
  ccfg.spines = 1;
  ccfg.hosts_per_leaf = 4;
  ccfg.oversubscription = 4.0;
  ClosFabric clos(tb.sched, "clos0", ccfg);
  eth.set_topology(&clos);

  std::vector<AttachmentPtr> senders;
  std::vector<AttachmentPtr> receivers;
  for (int i = 0; i < 4; ++i) {
    const std::string idx = std::to_string(i);
    auto& sn = tb.add_node("s" + idx);
    auto& sp = tb.add_port(sn, "s" + idx + "-eth", Bandwidth::gbps(10));
    clos.assign_port(sp, i);
    senders.push_back(eth.attach(sp));
    auto& rn = tb.add_node("r" + idx);
    auto& rp = tb.add_port(rn, "r" + idx + "-eth", Bandwidth::gbps(10));
    clos.assign_port(rp, 4);
    receivers.push_back(eth.attach(rp));
  }
  tb.sim.run();

  const double cap = 1e8;
  std::vector<double> done(4, -1);
  auto sender = [](sim::Simulation& s, EthFabric& f, AttachmentPtr src, FabricAddress dst,
                   TransferOptions o, double& t) -> sim::Task {
    co_await f.transfer(src, dst, Bytes::gib(1), o);
    t = s.now().to_seconds();
  };
  for (int i = 0; i < 4; ++i) {
    TransferOptions opts;
    if (i == 0) {
      opts.max_rate = cap;
    }
    tb.sim.spawn(sender(tb.sim, eth, senders[i], receivers[i]->address(), opts, done[i]));
  }
  tb.sim.run();
  const double fast_share = (1.25e9 - cap) / 3.0;
  EXPECT_NEAR(done[0], 1073741824.0 / cap + 10e-6, 1e-9);
  for (int i = 1; i < 4; ++i) {
    EXPECT_NEAR(done[i], 1073741824.0 / fast_share + 10e-6, 1e-9) << "flow " << i;
  }
}

TEST(ClosTopology, CapsCrossLeafButNotIntraLeaf) {
  // 4:1 oversubscription with 2 hosts per leaf: the single uplink is
  // 6.25e8 B/s, half the 10 GbE NIC rate. A cross-leaf transfer is
  // fabric-bound at the uplink; a same-leaf transfer never crosses the
  // fabric and runs at full NIC line rate.
  TestBed tb;
  EthFabricConfig cfg;
  cfg.latency = Duration::micros(10);
  EthFabric eth(tb.net, "eth0", cfg);
  ClosConfig ccfg;
  ccfg.leaves = 2;
  ccfg.spines = 1;
  ccfg.hosts_per_leaf = 2;
  ccfg.oversubscription = 4.0;  // uplink = 2 * 1.25e9 / 4 = 6.25e8 B/s
  ClosFabric clos(tb.sched, "clos0", ccfg);
  eth.set_topology(&clos);
  EXPECT_DOUBLE_EQ(clos.uplink_rate(), 6.25e8);

  auto& a = tb.add_node("a");
  auto& b = tb.add_node("b");
  auto& c = tb.add_node("c");
  auto& pa = tb.add_port(a, "a-eth", Bandwidth::gbps(10));
  auto& pb = tb.add_port(b, "b-eth", Bandwidth::gbps(10));
  auto& pc = tb.add_port(c, "c-eth", Bandwidth::gbps(10));
  clos.assign_port(pa, 0);
  clos.assign_port(pb, 0);  // same leaf as a
  clos.assign_port(pc, 1);  // across the fabric
  auto aa = eth.attach(pa);
  auto ab = eth.attach(pb);
  auto ac = eth.attach(pc);
  tb.sim.run();

  double cross_done = -1;
  double intra_done = -1;
  auto sender = [](sim::Simulation& s, EthFabric& f, AttachmentPtr src, FabricAddress dst,
                   double& t) -> sim::Task {
    co_await f.transfer(src, dst, Bytes::gib(1));
    t = s.now().to_seconds();
  };
  tb.sim.spawn(sender(tb.sim, eth, aa, ac->address(), cross_done));
  tb.sim.run();
  tb.sim.spawn(sender(tb.sim, eth, aa, ab->address(), intra_done));
  tb.sim.run();

  const double start = cross_done;  // intra transfer started when cross finished
  EXPECT_NEAR(cross_done, 1073741824.0 / 6.25e8 + 10e-6, 1e-9);
  EXPECT_NEAR(intra_done - start, 1073741824.0 / 1.25e9 + 10e-6, 1e-9);
}

}  // namespace
}  // namespace nm::net

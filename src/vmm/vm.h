// A virtual machine: vCPUs (a fluid resource that moves with the VM), guest
// memory, attached virtual PCI devices, a pause gate, and the SymVirt
// hypercall surface (wait/signal) that Ninja migration is built on.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/fluid.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "vmm/device.h"
#include "vmm/guest_memory.h"

namespace nm::vmm {

class Host;

struct VmSpec {
  std::string name;
  double vcpus = 8.0;
  Bytes memory = Bytes::gib(20);
  /// The paper boots Scientific Linux 6.2 guests; this much resident
  /// incompressible data (kernel, daemons, caches) exists before any
  /// workload runs and must travel on every migration.
  Bytes base_os_footprint = Bytes::mib(1536);
};

/// Guest-visible hotplug notification (delivered to the ACPI driver).
struct HotplugEvent {
  enum class Kind { kAdded, kRemoved };
  Kind kind;
  std::string tag;
  std::string device_kind;
};

enum class VmState { kRunning, kPaused };

class Vm {
 public:
  /// The vCPU allotment registers into `domain` (the boot host's domain)
  /// and stays there for the VM's lifetime, so the VM can only migrate
  /// between hosts of that domain (a federation shares one across sites).
  Vm(sim::Simulation& sim, sim::FluidScheduler& domain, VmSpec spec, Host& host);
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const VmSpec& spec() const { return spec_; }
  [[nodiscard]] GuestMemory& memory() { return memory_; }
  [[nodiscard]] const GuestMemory& memory() const { return memory_; }
  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }

  [[nodiscard]] Host& host() { return *host_; }
  /// Migration engine only: re-homes the VM and re-binds virtio devices.
  void set_host(Host& new_host);

  // --- Run state --------------------------------------------------------
  [[nodiscard]] VmState state() const { return state_; }
  [[nodiscard]] bool running() const { return state_ == VmState::kRunning; }
  /// Stops all guest progress: compute and tracked flows stall.
  void pause();
  void resume();
  [[nodiscard]] sim::Gate& run_gate() { return run_gate_; }

  // --- Guest execution --------------------------------------------------
  /// Runs `core_seconds` of single-threaded guest work. Respects the pause
  /// gate, the VM's vCPU allotment, and host CPU contention.
  [[nodiscard]] sim::Task compute(double core_seconds);
  /// Registers a flow to be suspended/resumed with the VM's run state.
  void track_flow(const sim::FlowPtr& flow);
  [[nodiscard]] sim::FluidResource& vcpu() { return vcpu_; }

  // --- Devices ----------------------------------------------------------
  VmDevice& plug_device(std::unique_ptr<VmDevice> device);
  std::unique_ptr<VmDevice> unplug_device(const std::string& tag);
  [[nodiscard]] VmDevice* find_device(const std::string& tag);
  /// First device of a kind (e.g. the guest's only virtio NIC).
  [[nodiscard]] VmDevice* find_device_by_kind(std::string_view kind);
  [[nodiscard]] std::vector<VmDevice*> devices();
  [[nodiscard]] bool has_vmm_bypass_device() const;
  /// Hotplug notifications consumed by the guest OS (ACPI model).
  [[nodiscard]] sim::Channel<HotplugEvent>& hotplug_events() { return hotplug_events_; }

  // --- SymVirt hypercalls (guest <-> VMM) --------------------------------
  /// Guest side: parks the calling guest task until symvirt_signal(). The
  /// VMM observes the entry via wait_entered()/symvirt_wait_count().
  [[nodiscard]] sim::Task symvirt_wait();
  /// VMM side: wakes every task parked in symvirt_wait.
  void symvirt_signal();
  [[nodiscard]] std::size_t symvirt_wait_count() const { return symvirt_waiting_; }
  /// VMM side: waits until at least `n` guest tasks are parked.
  [[nodiscard]] sim::Task wait_for_symvirt_entries(std::size_t n);

 private:
  void prune_tracked_flows();

  sim::Simulation* sim_;
  VmSpec spec_;
  Host* host_;
  GuestMemory memory_;
  sim::FluidResource vcpu_;
  VmState state_ = VmState::kRunning;
  sim::Gate run_gate_;
  std::vector<std::weak_ptr<sim::Flow>> tracked_flows_;
  std::vector<std::unique_ptr<VmDevice>> devices_;
  sim::Channel<HotplugEvent> hotplug_events_;

  std::size_t symvirt_waiting_ = 0;
  std::unique_ptr<sim::Event> symvirt_cycle_;    // set on signal
  std::unique_ptr<sim::Event> symvirt_entered_;  // pulsed on each wait entry
};

}  // namespace nm::vmm

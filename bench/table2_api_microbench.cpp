// Table II of the paper: latency and bandwidth of the NDFT shared-memory
// programming interface inside the simulated machine, separating
// intra-stack accesses (SPM-backed) from inter-stack accesses (arbiter +
// mesh). This measures the *simulated* API the NDP processes use, not
// the host-side Engine (perfbench's service_mix and bench_micro_engine
// time that).

#include <cstdio>
#include <string>

#include "common/str_util.hpp"
#include "common/table.hpp"
#include "ndp/ndp_system.hpp"
#include "runtime/shared_memory.hpp"

using namespace ndft;

namespace {

/// Runs one timed shared-memory API call, returning completion latency.
template <typename Fn>
TimePs timed(sim::EventQueue& queue, Fn&& call) {
  const TimePs start = queue.now();
  TimePs end = start;
  call([&end](TimePs at) { end = at; });
  queue.run();
  return end - start;
}

}  // namespace

int main() try {
  std::printf("Table II microbenchmark: NDFT shared-memory API\n\n");

  sim::EventQueue queue;
  ndp::NdpSystem ndp("ndp", queue, ndp::NdpSystemConfig::table3());
  runtime::SharedMemoryManager shm("shm", queue, ndp,
                                   runtime::SharedMemoryConfig{});

  TextTable table({"API call", "payload", "latency", "effective GB/s"});
  const auto add = [&](const char* name, Bytes bytes, TimePs latency) {
    const double gbps =
        latency == 0 ? 0.0
                     : static_cast<double>(bytes) /
                           static_cast<double>(latency);  // B/ps = TB/s
    table.add_row({name, format_bytes(bytes), format_time(latency),
                   strformat("%.2f", gbps * 1000.0)});
  };

  // Alloc + intra-stack read/write on a 16 KiB block owned by unit 0.
  const runtime::SharedBlock block = shm.alloc_shared(16 * 1024, 0);
  add("NDFT_Alloc_Shared(16 KiB)", 16 * 1024, 0);
  for (const Bytes size : {Bytes{256}, Bytes{4096}, Bytes{16384}}) {
    add("NDFT_Read (intra-stack)", size,
        timed(queue, [&](auto cb) { shm.read(block, size, cb); }));
    add("NDFT_Write (intra-stack)", size,
        timed(queue, [&](auto cb) { shm.write(block, size, cb); }));
  }

  // Remote reads: first touch crosses the mesh, the second hits the
  // arbiter's staging filter.
  for (const unsigned requester : {1u, 15u}) {
    const std::string label =
        strformat("NDFT_Read_Remote (stack %u, cold)", requester);
    add(label.c_str(), 16384, timed(queue, [&](auto cb) {
          shm.read_remote(block, 16384, requester, cb);
        }));
    const std::string warm =
        strformat("NDFT_Read_Remote (stack %u, staged)", requester);
    add(warm.c_str(), 16384, timed(queue, [&](auto cb) {
          shm.read_remote(block, 16384, requester, cb);
        }));
  }
  add("NDFT_Write_Remote (stack 15)", 16384, timed(queue, [&](auto cb) {
        shm.write_remote(block, 16384, 15, cb);
      }));
  add("NDFT_Broadcast (16 KiB to 15 stacks)", 16384 * 15,
      timed(queue, [&](auto cb) { shm.broadcast(block, cb); }));

  std::printf("%s\n", table.render().c_str());
  std::printf("staging filter: %llu hits, %llu misses; intra %s, inter %s\n",
              static_cast<unsigned long long>(shm.staging_hits()),
              static_cast<unsigned long long>(shm.staging_misses()),
              format_bytes(shm.intra_stack_bytes()).c_str(),
              format_bytes(shm.inter_stack_bytes()).c_str());
  return 0;
} catch (const NdftError& error) {
  std::fprintf(stderr, "table2_api_microbench: %s\n", error.what());
  return 1;
}

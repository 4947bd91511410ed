#include "pool/workers.hpp"
namespace tw {
void route_all(WorkerCrew& crew, std::vector<int>& out) {
  int total = 0;
  const WorkerCrew::Job job = [&](int, int slot) { out[slot] = slot; };
  crew.run(4, job);
  crew.run(4, [&total](int, int slot) { total += slot; });
}
}  // namespace tw

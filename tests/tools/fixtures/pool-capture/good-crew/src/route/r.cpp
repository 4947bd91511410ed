#include "pool/workers.hpp"
namespace tw {
void route_all(WorkerCrew& crew, const std::vector<int>& in,
               std::vector<int>& alternatives) {
  const WorkerCrew::Job job = [&in, &alternatives](int, int slot) {
    alternatives[slot] = in[slot];
  };
  crew.run(4, job);
  // Not a crew job: serial helpers keep their default captures.
  int total = 0;
  auto add = [&](int v) { total += v; };
  add(1);
}
}  // namespace tw

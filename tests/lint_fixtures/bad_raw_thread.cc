// Fixture: threads and condvars outside the one worker pool (linted
// under src/cluster/, and under src/sim/worker_pool.cc and tools/ to
// prove the scope).

void Fixture()
{
  std::thread t([] {});                         // line 7
  std::condition_variable cv;                   // line 8
  auto f = std::async([] { return 1; });        // line 9
  std::jthread j([] {});                        // line 10
}

// Fixture: raw-thread near-misses that must NOT be flagged under src/.
int Fixture(int thread)
{
  // Asking the host for its thread count starts nothing; nor does a
  // variable named `thread`, or std::thread in prose.
  return static_cast<int>(std::thread::hardware_concurrency()) + thread;
}

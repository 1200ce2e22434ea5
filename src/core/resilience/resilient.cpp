#include "core/resilience/resilient.h"

#include <new>
#include <stdexcept>

#include "sim/thread_pool.h"

namespace hwsec::core {

namespace detail {

SimError wrap_current_exception() {
  try {
    throw;
  } catch (const SimError& e) {
    return e;
  } catch (const std::bad_alloc& e) {
    return SimError(ErrorKind::kResourceExhausted,
                    std::string("host allocation failed: ") + e.what());
  } catch (const std::exception& e) {
    return SimError(ErrorKind::kInternalError, e.what());
  } catch (...) {
    return SimError(ErrorKind::kInternalError, "non-standard exception");
  }
}

}  // namespace detail

std::vector<std::optional<SimError>> run_parallel_tasks_resilient(
    const std::vector<std::function<void()>>& tasks, unsigned workers) {
  std::vector<std::optional<SimError>> errors(tasks.size());
  hwsec::sim::ThreadPool pool(workers);
  pool.parallel_for(tasks.size(), [&](std::size_t i) {
    try {
      tasks[i]();
    } catch (...) {
      errors[i] = detail::wrap_current_exception();
    }
  });
  return errors;
}

}  // namespace hwsec::core

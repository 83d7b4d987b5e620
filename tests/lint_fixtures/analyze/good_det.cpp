// Fixture: clean model code — zero findings expected.
#include <algorithm>
#include <vector>

#define ERAPID_UNREACHABLE(msg) throw 0

enum class Mode { A, B };

// All-cases switch, no default, trailing UNREACHABLE: -Wswitch still
// checks exhaustiveness and unmodeled values fail loudly.
int good_switch(Mode m) {
  switch (m) {
    case Mode::A: return 1;
    case Mode::B: return 2;
  }
  ERAPID_UNREACHABLE("unmodeled mode");
}

// default: inside the switch is the other accepted form.
int good_switch_default(Mode m) {
  int r = 0;
  switch (m) {
    case Mode::A: r = 1; break;
    default: r = 2; break;
  }
  return r;
}

struct Lane {
  int id = 0;
};

// Sorting by a stable field is fine even when the elements are pointers.
void good_sort(std::vector<Lane*>& lanes) {
  std::sort(lanes.begin(), lanes.end(),
            [](const Lane* a, const Lane* b) { return a->id < b->id; });
}

// Mentions in comments and strings never fire: std::unordered_map, rand().
const char* doc() { return "std::unordered_map and time() are banned here"; }

// A local runtime() function is not the libc time() call.
long runtime(long base) { return base; }
long use(long t) { return runtime(t); }

// Fixture: enum-class switch that falls through silently
// -> `enum-switch-default`.
enum class Mode { A, B };

int bad_switch(Mode m) {
  int r = 0;
  switch (m) {
    case Mode::A: r = 1; break;
    case Mode::B: r = 2; break;
  }
  return r;
}

// A test-scoped global locale that groups digits in threes with ',' and
// writes ',' as the decimal point — the kind of locale that turns a
// stream-formatted 123456789 into "123,456,789". Built from a custom
// numpunct facet, so no system locale has to be installed. The previous
// global locale comes back when the scope ends.
#pragma once

#include <locale>
#include <string>

namespace ddtr::test_support {

class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

class ScopedCommaLocale {
 public:
  // The locale takes ownership of the facet (reference count 0).
  ScopedCommaLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaNumpunct))) {}
  ~ScopedCommaLocale() { std::locale::global(previous_); }

  ScopedCommaLocale(const ScopedCommaLocale&) = delete;
  ScopedCommaLocale& operator=(const ScopedCommaLocale&) = delete;

 private:
  std::locale previous_;
};

}  // namespace ddtr::test_support

// Run-time construction of any DDT implementation — the mechanism behind
// "keeping the same instrumentation and changing the DDT implementation
// for each dominant data structure" (paper §3.1).
//
// The one kind switch maps each of the 12 kinds to its instantiation of
// the four container templates (see ddt/kinds.h). Two entry points share
// it. make_container returns a heap container behind the virtual
// Container<T> interface. visit_container builds the concrete, `final`
// container on the stack and hands it to a generic callable, so a kernel
// written against it calls every operation statically (and the compiler
// can inline it): the dispatch is paid once per run instead of once per
// operation.
#pragma once

#include <memory>
#include <stdexcept>
#include <type_traits>

#include "ddt/array.h"
#include "ddt/array_of_pointers.h"
#include "ddt/chunked_list.h"
#include "ddt/container.h"
#include "ddt/kinds.h"
#include "ddt/linked_list.h"
#include "ddt/unrolled_scan.h"

namespace ddtr::ddt {

namespace detail {

// The one kind switch: calls `f(std::type_identity<C>{})` with the
// concrete container class C of `kind`.
template <typename T, typename F>
decltype(auto) with_kind_type(DdtKind kind, F&& f) {
  switch (kind) {
    case DdtKind::kArray:
      return f(std::type_identity<ArrayContainer<T>>{});
    case DdtKind::kArrayOfPointers:
      return f(std::type_identity<ArrayOfPointersContainer<T>>{});
    case DdtKind::kSll:
      return f(std::type_identity<SllContainer<T>>{});
    case DdtKind::kDll:
      return f(std::type_identity<DllContainer<T>>{});
    case DdtKind::kSllRoving:
      return f(std::type_identity<SllRovingContainer<T>>{});
    case DdtKind::kDllRoving:
      return f(std::type_identity<DllRovingContainer<T>>{});
    case DdtKind::kSllOfArrays:
      return f(std::type_identity<SllOfArraysContainer<T>>{});
    case DdtKind::kDllOfArrays:
      return f(std::type_identity<DllOfArraysContainer<T>>{});
    case DdtKind::kSllOfArraysRoving:
      return f(std::type_identity<SllOfArraysRovingContainer<T>>{});
    case DdtKind::kDllOfArraysRoving:
      return f(std::type_identity<DllOfArraysRovingContainer<T>>{});
    case DdtKind::kOpenHash:
      return f(std::type_identity<ArrayContainer<T, /*Indexed=*/true>>{});
    case DdtKind::kUnrolledScan:
      return f(std::type_identity<UnrolledScanContainer<T>>{});
  }
  throw std::invalid_argument("unknown DdtKind");
}

}  // namespace detail

// Creates a container of the requested kind reporting into `profile`.
// `key_fn` (optional) enables keyed lookups via Container::find_key; it is
// required for kOpenHash to do anything beyond plain-array behavior, which
// is why the explorer only offers that kind on keyed slots.
template <typename T>
std::unique_ptr<Container<T>> make_container(
    DdtKind kind, prof::MemoryProfile& profile,
    typename Container<T>::KeyFn key_fn = nullptr) {
  return detail::with_kind_type<T>(
      kind, [&](auto type) -> std::unique_ptr<Container<T>> {
        using C = typename decltype(type)::type;
        return std::make_unique<C>(profile, key_fn);
      });
}

// Builds a container of the requested kind (same arguments and charges as
// make_container) and returns `f(container)`, where `container` is an
// lvalue of the concrete `final` class — `f` is a generic callable,
// instantiated once per kind.
//
// Lifetime: the container lives exactly as long as the call to `f`, and
// its destructor charges the frees of everything it still holds to
// `profile`. A kernel that reports counters without those frees (every
// app's run() does) must read `profile.counters()` inside `f`, not after
// visit_container returns.
template <typename T, typename F>
decltype(auto) visit_container(DdtKind kind, prof::MemoryProfile& profile,
                               typename Container<T>::KeyFn key_fn, F&& f) {
  return detail::with_kind_type<T>(kind, [&](auto type) -> decltype(auto) {
    using C = typename decltype(type)::type;
    C container(profile, key_fn);
    return f(container);
  });
}

}  // namespace ddtr::ddt

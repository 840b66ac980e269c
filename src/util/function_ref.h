// Non-owning callable reference.
//
// A FunctionRef is two words -- an object pointer and a trampoline -- so
// passing one costs no allocation and calling it is one indirect call, where
// std::function may allocate on construction and adds a type-erased wrapper
// on every call.  It never owns the callable: the referenced object must
// outlive every call made through the reference.  Take it as a by-value
// parameter and call it within that call; never store it.

#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace concilium::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
  public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                 std::is_object_v<std::remove_reference_t<F>> &&
                 std::is_invocable_r_v<R, F&, Args...>)
    // NOLINTNEXTLINE(google-explicit-constructor): binds like a parameter.
    FunctionRef(F&& f) noexcept
        : object_(const_cast<void*>(
              static_cast<const void*>(std::addressof(f)))),
          call_([](void* object, Args... args) -> R {
              return std::invoke(
                  *static_cast<std::remove_reference_t<F>*>(object),
                  std::forward<Args>(args)...);
          }) {}

    R operator()(Args... args) const {
        return call_(object_, std::forward<Args>(args)...);
    }

  private:
    void* object_;
    R (*call_)(void*, Args...);
};

}  // namespace concilium::util

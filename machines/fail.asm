# Fails explicitly on the first step.

sort Nat = 0..4

static zero : -> Nat = builtin zero

dynamic c : -> Nat output

init c = zero

program:
  fail

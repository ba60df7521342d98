# Two active updates write different values to one location, so the
# first step clashes.

sort Nat = 0..4

static zero : -> Nat = builtin zero
static succ : Nat -> Nat = builtin succ

dynamic c : -> Nat output

init c = zero

program:
  par {
    c := succ(zero)
    c := succ(succ(zero))
  }

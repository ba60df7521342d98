# Reads and rewrites a difference-list slot whose init rule is partial:
# f starts as half(x), undefined at odd x.  From i = start, each step
# either raises f(i) by two through two equal writes, or moves on to the
# next cell; it halts at 9, or on reaching a cell that f leaves
# undefined, where the guard's read of f(i) is undefined.

sort Nat = 0..9

static succ : Nat -> Nat = builtin succ
static plus : Nat Nat -> Nat = builtin plus
static lt : Nat Nat -> Bool = builtin lt
static half : Nat -> Nat = {0 -> 0, 2 -> 1, 4 -> 2, 6 -> 3, 8 -> 4}

input start : Nat

dynamic f : Nat -> Nat output
dynamic i : -> Nat

init f(x) = half(x)
init i = start

program:
  if eq_Nat(i, 9) then
    halt
  else if lt(f(i), 3) then
    par {
      f(i) := succ(succ(f(i)))
      f(i) := plus(f(i), 2)
    }
  else
    i := succ(i)

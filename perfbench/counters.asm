# Two-counter vocabulary for the random-program workload.  The program
# below only registers the literals 1 and 2 as constants; the benchmark
# replaces it with seeded random programs over the same vocabulary.

sort Nat = 0..4

static zero : -> Nat = builtin zero
static lt   : Nat Nat -> Bool = builtin lt
static le   : Nat Nat -> Bool = builtin le

input p0 : Nat
input q0 : Nat

dynamic p : -> Nat output
dynamic q : -> Nat

init p = p0
init q = q0

program:
  par {
    p := 1
    q := 2
  }

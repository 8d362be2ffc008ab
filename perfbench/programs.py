"""Seeded Prolog programs with answers computed here, independently of
the toolchain. Every program runs the same four kernels (quicksort,
naive reverse, binary-tree insertion and an arithmetic fold), each on
its own list of LIST_LEN random integers, so two draws almost never
share a source text while the work per program stays about the same."""

LIST_LEN = 16

_KERNELS = """\
partition([], _, [], []).
partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
qsort([], R, R).
qsort([X|L], R, R0) :-
    partition(L, X, L1, L2), qsort(L2, R1, R0), qsort(L1, R, [X|R1]).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
ins(K, nil, t(nil, K, nil)).
ins(K, t(L, K0, R), t(L1, K0, R)) :- K < K0, !, ins(K, L, L1).
ins(K, t(L, K0, R), t(L, K0, R1)) :- K > K0, !, ins(K, R, R1).
ins(_, T, T).
build([], T, T).
build([K|Ks], T0, T) :- ins(K, T0, T1), build(Ks, T1, T).
walk(nil, L, L).
walk(t(A, K, B), L0, L) :- walk(A, L0, [K|L1]), walk(B, L1, L).
fold([], A, A).
fold([X|Xs], A, R) :- A1 is (A * 31 + X) mod 1000003, fold(Xs, A1, R).
main :-
    qsort(%s, S, []), out(S),
    nrev(%s, V), out(V),
    build(%s, nil, T), walk(T, W, []), out(W),
    fold(%s, 7, F), out(F).
"""


def _fold(xs):
    a = 7
    for x in xs:
        a = (a * 31 + x) % 1000003
    return a


def _plist(xs):
    return "[" + ",".join(str(x) for x in xs) + "]"


def draw(rng):
    """(source, expected answer) of one random program."""
    a, b, c, d = ([rng.randrange(1000) for _ in range(LIST_LEN)]
                  for _ in range(4))
    source = _KERNELS % (_plist(a), _plist(b), _plist(c), _plist(d))
    answer = [_plist(sorted(a)), _plist(b[::-1]), _plist(sorted(set(c))),
              str(_fold(d))]
    return source, "\n".join(answer) + "\n"

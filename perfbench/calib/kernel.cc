// Fixed-work calibration kernel for perfbench.
//
// It does the same work on every run and shares no code with the
// toolchain: a register-machine interpreter loop (the branchy dispatch
// an emulator does), a sort and hash-table inserts and lookups (the
// allocation of a compiler's tables) and a random walk through 4 MiB
// (their cache misses; most of the kernel's time, because host load
// slows the tools through the caches more than through arithmetic).
// run.py times this process between operations; the ratio of an
// operation's time to the kernel's time cancels how fast the shared
// host happens to run at that moment. Exits 0.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

uint64_t state = 88172645463325252ull;

uint64_t
next()
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

// A random straight-line-and-branch program over 8 registers, run for
// a fixed number of steps.
uint64_t
interpret(int steps)
{
    struct Op { uint8_t code, a, b, c; };
    std::vector<Op> prog(4096);
    for (auto &op : prog)
        op = {uint8_t(next() % 6), uint8_t(next() % 8), uint8_t(next() % 8),
              uint8_t(next() % 8)};
    uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    size_t pc = 0;
    for (int i = 0; i < steps; ++i) {
        const Op &op = prog[pc];
        switch (op.code) {
        case 0: r[op.a] = r[op.b] + r[op.c]; break;
        case 1: r[op.a] = r[op.b] ^ (r[op.c] << 1); break;
        case 2: r[op.a] = r[op.b] * 0x9e3779b97f4a7c15ull; break;
        case 3: r[op.a] = r[op.b] >> (r[op.c] & 15); break;
        case 4:
            if (r[op.b] & 1) {
                pc = r[op.a] % prog.size();
                continue;
            }
            break;
        default: r[op.a] = r[op.b] - r[op.c]; break;
        }
        pc = (pc + 1) % prog.size();
    }
    return r[0] ^ r[7];
}

uint64_t
tables(size_t n)
{
    std::vector<uint32_t> v(n);
    for (auto &e : v)
        e = uint32_t(next());
    std::sort(v.begin(), v.end());
    std::unordered_map<uint32_t, uint32_t> m;
    for (size_t i = 0; i < n; i += 2)
        m[v[i] & 0x3ffff] += uint32_t(i);
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
        auto it = m.find(v[i] & 0x3ffff);
        acc += it == m.end() ? (i & 3) : (it->second >> (i & 7));
    }
    return acc;
}

// Build one random cycle over @p n slots (Sattolo's shuffle), then walk
// it: cache misses, which a loaded host slows more than arithmetic.
uint64_t
chase(size_t n, size_t steps)
{
    std::vector<uint32_t> link(n);
    for (size_t i = 0; i < n; ++i)
        link[i] = uint32_t(i);
    for (size_t i = n - 1; i > 0; --i)
        std::swap(link[i], link[next() % i]);
    uint32_t p = 0;
    for (size_t i = 0; i < steps; ++i)
        p = link[p];
    return p;
}

} // namespace

int
main()
{
    uint64_t sum = interpret(3'000'000) + tables(1 << 16)
                   + chase(size_t(1) << 20, size_t(1) << 19);
    // Print nothing on success; a sum that the optimizer could not
    // drop keeps the work real.
    return sum == 0 ? 1 : 0;
}

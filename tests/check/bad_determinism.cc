// otcheck:fixture-path src/otn/fixture_bad_determinism.cc
//
// Known-bad determinism fixture.  Every construct below is a
// nondeterminism source or an iteration-order hazard in a
// library layer (src/otn); each annotated line must produce
// exactly the listed diagnostics.  This file is checker input, never
// compiled.
#include <cstdlib>
#include <map>
#include <unordered_map>

int
laneSeed()
{
    return rand(); // expect: determinism
}

void
reseed()
{
    srand(7); // expect: determinism
}

long
hostEntropy()
{
    std::random_device rd; // expect: determinism
    return static_cast<long>(rd());
}

long
wallClock()
{
    return std::time(nullptr); // expect: determinism
}

long
chronoClock()
{
    auto t = std::chrono::steady_clock::now(); // expect: determinism
    return t.time_since_epoch().count();
}

unsigned long
hostLane()
{
    return std::hash<std::thread::id>{}(
        std::this_thread::get_id()); // expect: determinism
}

int
orderLeak(const std::unordered_map<int, int> &m) // expect: determinism
{
    int sum = 0;
    for (const auto &kv : m)
        sum += kv.second;
    return sum;
}

struct Node
{
    int value;
};

int
addressOrder()
{
    std::map<Node *, int> byAddr; // expect: determinism
    int sum = 0;
    for (const auto &kv : byAddr)
        sum += kv.second;
    return sum;
}

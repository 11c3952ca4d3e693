"""One cold set-up of a benchmark round, timed in a fresh interpreter.

    python3 benchmarks/setup_child.py WORKLOAD WORKDIR SPEC...

Each SPEC is one input spec of the round, its fields joined by ``:``
(see ``encode``).  The script starts its clock at its first statement,
then imports matspan and builds the round's inputs with the program's
generators, exactly as ``run.py`` does, and prints the seconds taken.
So the time covers every import that ``import matspan`` makes, standard
library modules included, but not the interpreter's own start-up.

``run.py`` imports the ``build`` function from here, so the set-up it
times and the inputs it measures on are made by the same code.  Nothing
else is imported before the clock starts.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402  (loaded at interpreter start-up; costs nothing here)
import sys  # noqa: E402


def encode(spec):
    return ":".join(str(x) for x in spec)


def decode(text):
    constants = {"None": None, "True": True, "False": False}
    return tuple(int(t) if t.lstrip("-").isdigit() else constants.get(t, t)
                 for t in text.split(":"))


def generator(ms, kind):
    return {
        "irreducible-pair": ms.irreducible_pair_instance,
        "random-cyclic": ms.random_cyclic_instance,
        "random": ms.random_instance,
    }[kind]


def build(ms, workload, specs, workdir):
    """A round's inputs as program objects: a list of (spec, ...) items."""
    if workload == "verdict-ext":
        # spec: (generator, p, m, n, generator seed, fails today)
        return [(spec, generator(ms, spec[0])(ms.canonical_field(spec[1], 1),
                                              spec[2], spec[3], spec[4]))
                for spec in specs]
    if workload == "span-dim-large":
        # spec: (p, m, n, generator seed)
        return [(spec, ms.random_instance(ms.canonical_field(spec[0], 1), *spec[1:]))
                for spec in specs]
    if workload == "analyze-cli":
        # spec: (generator, p, extension degree, m, n, generator seed, S = 0)
        import json
        items = []
        for i, spec in enumerate(specs):
            kind, p, k, m, n, gseed, zero_s = spec
            field = ms.canonical_field(p, k)
            if kind == "shift-example":
                inst = ms.shift_instance(field, m, n)
            else:
                inst = generator(ms, kind)(field, m, n, gseed)
            if zero_s:
                inst = ms.Instance(field, inst.a, inst.b, ms.Mat.zeros(field, m, n))
            obj = ms.dump_instance(inst)
            obj["field"].pop("modulus", None)  # the child builds the canonical one
            path = os.path.join(workdir, f"op{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(obj))
            items.append((spec, path, obj))
        return items
    if workload == "selftest":
        # spec: (suite name, seed or None)
        names = ms.suite_names("full")
        if [spec[0] for spec in specs] != names:
            raise RuntimeError(f"the program's suites changed: {names}")
        return list(specs)
    raise ValueError(f"unknown workload {workload!r}")


def main():
    workload, workdir, specs = sys.argv[1], sys.argv[2], [decode(s) for s in sys.argv[3:]]
    import matspan

    build(matspan, workload, specs, workdir)
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main()

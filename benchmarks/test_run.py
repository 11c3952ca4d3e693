"""How run.py judges a CLI answer, how setup_child.py passes specs, and
the reference loop helper.

    python3 -m unittest discover -s benchmarks -p "test_*.py"
"""

from __future__ import annotations

import json
import subprocess
import unittest

import run
import setup_child

# GF(3), A = [[1]], B = [[2]], S = [[1]]: one product, rank 1 = mn, spans
INSTANCE = {"field": {"p": 3, "degree": 1}, "A": [[1]], "B": [[2]], "S": [[1]]}
SPEC = ("random", 3, 1, 1, 1, None, False)
VERDICT = {"field": {"p": 3, "degree": 1}, "span_dim": 1, "spans_full": True,
           "consistency_ok": True, "a_cyclic": True, "b_cyclic": True, "witness": None}


def answer(out, returncode=0):
    stdout = out if isinstance(out, str) else json.dumps(out)
    return subprocess.CompletedProcess([], returncode, stdout, "")


class CliCheckTest(unittest.TestCase):
    def check(self, out, returncode=0):
        run.AnalyzeCli().check((SPEC, "op0.json", INSTANCE), answer(out, returncode), {})

    def test_good_answer_passes(self):
        self.check(VERDICT)

    def test_wrong_exit_code(self):
        with self.assertRaises(run.WrongAnswer):
            self.check(VERDICT, returncode=1)

    def test_wrong_rank(self):
        with self.assertRaises(run.WrongAnswer):
            self.check(dict(VERDICT, span_dim=0, spans_full=False), returncode=1)

    def test_malformed_answers_are_wrong_answers(self):
        witness = {"field": {"p": 3, "degree": 1}, "alpha": [1, 0], "beta": [2],
                   "u": [[1]], "v": [[1]], "value_uSv": [0]}
        for out in ("", "not json", {}, dict(VERDICT, field=None),
                    {k: v for k, v in VERDICT.items() if k != "span_dim"},
                    dict(VERDICT, witness=witness)):
            with self.subTest(out=out), self.assertRaises(run.WrongAnswer):
                self.check(out)


class SpecTest(unittest.TestCase):
    def test_round_trip(self):
        for spec in (("random", 65521, 2, 2, 0, True), ("theorem-sampled", None),
                     ("shift-example", 3, 2, 3, 3, 1234567, False), ("pbh-random", 42)):
            self.assertEqual(setup_child.decode(setup_child.encode(spec)), spec)


class ReferenceTest(unittest.TestCase):
    def test_samples_cover_what_is_owed_and_the_helper_ends(self):
        ref = run.Reference()
        try:
            self.assertEqual(len(ref.samples(0.0)), 1)
            samples = ref.samples(0.05)
            self.assertGreaterEqual(sum(samples), 0.05)
            self.assertLess(sum(samples[:-1]), 0.05)
            self.assertTrue(all(s > 0 for s in samples))
        finally:
            ref.close()
        self.assertEqual(ref.proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()

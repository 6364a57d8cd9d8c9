#!/usr/bin/env python3
"""Tests for tools/lint/hbft_lint.py.

Three layers:

  * Fixture files under tests/lint/fixtures/, one (or two) seeded violations
    per rule, asserting each rule fires at the expected line and that every
    suppression form (allow same-line, allow line-above, allow-file,
    derived-state) actually suppresses.

  * The full src/ tree must lint clean — the same gate CI enforces.

  * Mutation tests against the real tree: deleting a single field write from
    a Snapshotable CaptureState implementation, or from a wire codec's
    Serialize, must turn the lint red (the acceptance property the
    snapshot-completeness and codec-symmetry checks exist for).

Run directly (`python3 tests/lint_test.py`) or via CTest (`ctest -R lint`).
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "lint", "hbft_lint.py")
FIXTURES = os.path.join(REPO, "tests", "lint", "fixtures")


def run_lint(*paths, root=REPO):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, *paths],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


class FixtureViolations(unittest.TestCase):
    """Each rule's seeded violations are caught, at the marked lines."""

    def assert_rule(self, name, rule, lines):
        code, out = run_lint(fixture(name))
        self.assertEqual(code, 1, f"{name}: expected exit 1, got {code}\n{out}")
        found = [int(m.group(1))
                 for m in re.finditer(rf"\.cpp:(\d+): \[{re.escape(rule)}\]", out)]
        self.assertEqual(sorted(found), sorted(lines),
                         f"{name}: [{rule}] at {found}, wanted {lines}\n{out}")
        # Nothing but the seeded rule fires: a fixture that trips extra rules
        # is testing less than it claims.
        other = [ln for ln in out.splitlines()
                 if re.search(r"\[[a-z-]+\]", ln) and f"[{rule}]" not in ln]
        self.assertEqual(other, [], f"{name}: unexpected extra findings: {other}")

    def test_wall_clock(self):
        self.assert_rule("det_wall_clock.cpp", "wall-clock", [9, 14])

    def test_ambient_rand(self):
        self.assert_rule("det_ambient_rand.cpp", "ambient-rand", [9, 13])

    def test_unordered_container(self):
        self.assert_rule("det_unordered_container.cpp", "unordered-container", [15])

    def test_unordered_iteration_fires_under_suppressed_declaration(self):
        self.assert_rule("det_unordered_iteration.cpp", "unordered-iteration", [14, 17])

    def test_pointer_keyed(self):
        self.assert_rule("det_pointer_keyed.cpp", "pointer-keyed", [14, 15, 19])

    def test_snapshot_field(self):
        self.assert_rule("snapshot_incomplete.cpp", "snapshot-field", [28])

    def test_codec_symmetry(self):
        self.assert_rule("codec_asymmetry.cpp", "codec-symmetry", [15, 31])

    def test_bad_suppression(self):
        self.assert_rule("bad_suppression.cpp", "bad-suppression", [8, 11])

    def test_thread_id(self):
        self.assert_rule("det_thread_id.cpp", "thread-id", [8])

    def test_thread_spawn(self):
        # Two spawns flagged; std::thread::hardware_concurrency (line 19)
        # must not be — it is a capability query, not thread creation.
        self.assert_rule("det_thread_spawn.cpp", "thread-spawn", [10, 15])

    def test_detached_thread(self):
        # The fixture's std::thread decl carries a reasoned allow-file so
        # only the detach itself fires.
        self.assert_rule("det_detached_thread.cpp", "detached-thread", [10])

    def test_thread_local_state(self):
        # Line 10: the bare declaration. Line 23: an *allowed* thread_local
        # referenced inside CaptureState — codec reachability re-flags it
        # despite the allow on the declaration.
        self.assert_rule("det_thread_local.cpp", "thread-state", [10, 23])


class Suppressions(unittest.TestCase):
    """Every annotation form silences its rule (and only with a reason)."""

    def test_all_forms_lint_clean(self):
        # suppressed_ok.cpp carries: allow() same-line, allow() line-above,
        # allow-file(), and derived-state — and would trip wall-clock,
        # ambient-rand, unordered-container, and snapshot-field without them.
        code, out = run_lint(fixture("suppressed_ok.cpp"))
        self.assertEqual(code, 0, out)

    def test_clean_file_is_clean(self):
        code, out = run_lint(fixture("clean.cpp"))
        self.assertEqual(code, 0, out)

    def test_local_writer_over_out_buffer_is_not_a_codec_step(self):
        # `Snapshot out; SnapshotWriter w(&out);` declares a writer; it must
        # not count as a nested codec call just because the buffer is named
        # like a byte stream.
        code, out = run_lint(fixture("codec_local_writer_ok.cpp"))
        self.assertEqual(code, 0, out)

    def test_operator_declarations_are_not_members(self):
        # A deleted `operator=` and a defaulted `operator==` must parse as
        # functions, not as a never-serialized member named `operator`.
        code, out = run_lint(fixture("snapshot_operators_ok.cpp"))
        self.assertEqual(code, 0, out)

    def test_stripping_the_annotations_unsuppresses(self):
        # The same file with its hbft-lint annotations removed must fail for
        # each formerly-suppressed rule: proves the clean verdict above comes
        # from the annotations, not from the rules missing the patterns.
        with open(fixture("suppressed_ok.cpp"), encoding="utf-8") as f:
            text = f.read()
        stripped = re.sub(r"(//|) ?hbft-lint:[^\n]*", "", text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "unsuppressed.cpp")
            with open(path, "w", encoding="utf-8") as f:
                f.write(stripped)
            code, out = run_lint(path, root=tmp)
            self.assertEqual(code, 1, out)
            for rule in ("wall-clock", "ambient-rand", "unordered-container",
                         "snapshot-field"):
                self.assertIn(f"[{rule}]", out, out)


class FullTree(unittest.TestCase):
    """src/ is clean — the CI gate, asserted here so a local `ctest -R lint`
    answers the same question."""

    def test_src_tree_clean(self):
        code, out = run_lint("src")
        self.assertEqual(code, 0, out)


class MutationOnRealTree(unittest.TestCase):
    """Deleting one field write from a real Capture* method, or from a wire
    codec's Serialize, makes the lint fail (via codec-symmetry when only the
    writer side is edited, via snapshot-field when both sides drop the
    member). The replica entry is the resync control snapshot's protocol
    half, paired with its Restore* in the same class. The message and wire
    entries are the protocol message and serve client frame codecs, which
    write through the same SnapshotWriter operations as the snapshots."""

    # (file, one full line inside a Capture* method or Serialize to delete)
    WRITER_MUTATIONS = [
        ("src/machine/tlb.cpp", "  w.U64(lookups_);"),
        ("src/machine/machine.cpp", None),  # auto-pick below
        ("src/hypervisor/hypervisor.cpp", None),
        ("src/devices/disk.cpp", None),
        ("src/devices/nic.cpp", None),
        ("src/core/replica.cpp", "  w.U64(next_env_seq_);"),
        ("src/net/message.cpp", "  w.U64(epoch);"),
        ("src/serve/wire.cpp", "  w.U64(client_id);"),
    ]

    @staticmethod
    def capture_write_line(path):
        """First `w.<Width>(...);`-only line inside a Capture* method body."""
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        inside = False
        for line in lines:
            if re.search(r"::Capture\w*\(SnapshotWriter& w[,)]", line):
                inside = True
                continue
            if inside and re.match(r"^\}", line):
                inside = False
            if inside and re.match(r"^\s+w\.(U8|U16|U32|U64|I64|Bool)\([^;]*\);\s*$", line):
                return line.rstrip("\n")
        return None

    def lint_mutated(self, rel_path, doomed_line):
        src = os.path.join(REPO, rel_path)
        with open(src, encoding="utf-8") as f:
            text = f.read()
        self.assertIn(doomed_line + "\n", text, f"{rel_path}: line to delete not found")
        mutated = text.replace(doomed_line + "\n", "", 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, os.path.basename(rel_path))
            with open(path, "w", encoding="utf-8") as f:
                f.write(mutated)
            return run_lint(path, root=tmp)

    def test_deleting_one_capture_write_fails_lint(self):
        for rel_path, doomed in self.WRITER_MUTATIONS:
            with self.subTest(file=rel_path):
                if doomed is None:
                    doomed = self.capture_write_line(os.path.join(REPO, rel_path))
                    self.assertIsNotNone(
                        doomed, f"{rel_path}: no deletable capture write found")
                code, out = self.lint_mutated(rel_path, doomed)
                self.assertEqual(code, 1,
                                 f"{rel_path}: lint stayed green after deleting "
                                 f"`{doomed.strip()}`\n{out}")
                self.assertIn("[codec-symmetry]", out, out)

    def test_unmutated_files_stay_green(self):
        # The counterpart: the same single files lint clean unmutated, so the
        # red verdicts above are caused by the mutation alone.
        for rel_path, _ in self.WRITER_MUTATIONS:
            with self.subTest(file=rel_path):
                code, out = run_lint(rel_path)
                self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main(verbosity=2)

"""The shared JSONL ledger: pinned on-disk formats of both of its users.

The literal lines below are the bytes the grid checkpoint and the service
journal have always written; ledgers already on disk in this format must
keep resuming, and new appends must keep producing exactly these bytes.
"""

from repro.evaluation.grid import Checkpoint, load_resume
from repro.ledger import Ledger
from repro.service.journal import Journal

CHECKPOINT_LINES = [
    '{"meta": {"slice": "smoke", "seed": 1}}\n',
    '{"fingerprint": "Table3Unit:0123456789abcdef", "part": "table3", '
    '"result": {"benchmark": "fasta", "k": 0.25, "program_points": 12, '
    '"gadgets_per_point": 1.5}}\n',
    '{"fingerprint": "Figure5Unit:fedcba9876543210", "part": "figure5", '
    '"result": {"benchmark": "fasta", "k": 1.0, "slowdown_vs_native": 31.2}}\n',
]

JOURNAL_LINES = [
    '{"fingerprint": "AttackRequest:00112233aabbccdd", "row": {"id": "r0", '
    '"status": "done", "secret_found": true, "witness": {"arg0": 90}, '
    '"executions": 3}}\n',
    '{"fingerprint": "AttackRequest:44556677eeff0011", "row": {"id": "r1", '
    '"status": "done", "secret_found": false, "witness": null, '
    '"executions": 7}}\n',
]


def test_checkpoint_format_loads_and_resumed_append_is_byte_identical(tmp_path):
    path = tmp_path / Checkpoint.FILENAME
    path.write_text("".join(CHECKPOINT_LINES[:2]))
    axes = {"slice": "smoke", "seed": 1}
    completed, meta = Checkpoint.load_with_meta(tmp_path)
    assert meta == axes
    assert completed == {"Table3Unit:0123456789abcdef": {
        "part": "table3",
        "result": {"benchmark": "fasta", "k": 0.25, "program_points": 12,
                   "gadgets_per_point": 1.5}}}
    assert load_resume(tmp_path, axes)[0] == completed
    assert issubclass(Checkpoint, Ledger) and issubclass(Journal, Ledger)

    # reopening with meta keeps the original meta line and appends after it
    with Checkpoint(tmp_path, meta=axes) as checkpoint:
        checkpoint.record("Figure5Unit:fedcba9876543210", "figure5",
                          {"benchmark": "fasta", "k": 1.0,
                           "slowdown_vs_native": 31.2})
    assert path.read_text() == "".join(CHECKPOINT_LINES)


def test_fresh_checkpoint_writes_the_pinned_bytes(tmp_path):
    with Checkpoint(tmp_path, meta={"slice": "smoke", "seed": 1}) as checkpoint:
        checkpoint.record("Table3Unit:0123456789abcdef", "table3",
                          {"benchmark": "fasta", "k": 0.25,
                           "program_points": 12, "gadgets_per_point": 1.5})
    assert (tmp_path / Checkpoint.FILENAME).read_text() == \
        "".join(CHECKPOINT_LINES[:2])


def test_journal_format_loads_and_resumed_append_is_byte_identical(tmp_path):
    path = tmp_path / Journal.FILENAME
    path.write_text(JOURNAL_LINES[0])
    assert Journal.load(tmp_path) == {"AttackRequest:00112233aabbccdd": {
        "id": "r0", "status": "done", "secret_found": True,
        "witness": {"arg0": 90}, "executions": 3}}
    with Journal(tmp_path) as journal:
        journal.record("AttackRequest:44556677eeff0011",
                       {"id": "r1", "status": "done", "secret_found": False,
                        "witness": None, "executions": 7})
    assert path.read_text() == "".join(JOURNAL_LINES)


def test_torn_line_is_repaired_once_for_both_formats(tmp_path):
    for cls, lines in ((Checkpoint, CHECKPOINT_LINES),
                       (Journal, JOURNAL_LINES)):
        directory = tmp_path / cls.__name__
        directory.mkdir()
        path = directory / cls.FILENAME
        torn = lines[-1][:25]  # a writer killed mid-line: no newline
        path.write_text("".join(lines[:-1]) + torn)
        entries, _ = cls.read(directory)
        assert len(entries) == len([line for line in lines[:-1]
                                    if "fingerprint" in line])
        with cls(directory):
            pass  # reopening repairs the torn line, appending nothing
        assert path.read_text() == "".join(lines[:-1]) + torn + "\n"

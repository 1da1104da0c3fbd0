"""Every report byte-identical to the recorded one: the output digest as a test.

`output_digest.total_digest` runs every command, in both formats, on the
digest's documents, in process; a change to any exit code, report or
message changes its sha256.  A change meant to alter reports updates
`output_digest.RECORDED`.
"""

from output_digest import RECORDED, total_digest


def test_every_output_matches_the_recorded_digest():
    _, digest = total_digest()
    assert digest == RECORDED, "a report changed: compare output_digest.py --each in both checkouts"

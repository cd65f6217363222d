"""Known-bad for SIM006: getattr-probing declared interface attributes."""


def drain(step_time):
    flush = getattr(step_time, "flush", None)
    if flush is not None:
        flush()
    return getattr(step_time, "gpu", "A100")


def bill_spilled_reads(tracker, running):
    spill = getattr(tracker, "spill_read_seconds", None)
    return spill(running) if spill is not None else 0.0

"""Known-good for SIM006: the interface declares these; use them directly."""


def drain(step_time):
    step_time.flush()
    return step_time.gpu


def bill_spilled_reads(tracker, running):
    return tracker.spill_read_seconds(running)


def unrelated_probe(obj):
    # Probing for attributes outside the declared interface list is fine.
    return getattr(obj, "debug_hook", None)

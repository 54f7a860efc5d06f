try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # tier-1 runs the same examples every time and never fails on timing
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")

ACCEPTANCE_LINES = []


def record_acceptance(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} [{verdict}] {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

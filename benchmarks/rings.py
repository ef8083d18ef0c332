"""Ring-N: a family of control-state programs that grows with one parameter.

Ring-N has N lanes sharing one track segment and 2N control phases
``S1, G1, ..., SN, GN``.  In phase ``Si`` lane i switches to go and moves
to ``Gi``; in ``Gi`` it switches back to stop and hands over to
``S(i+1)`` (lane N hands over to lane 1).  Each move also needs the
monitored input ``Passed(phase)``.  The program is unsafe when any two
go-lights are on.  Ring-2 is the bundled traffic light with its phases
renamed.

The faulty variant lets lane 1 jump from ``G1`` straight to ``G2``
without switching its own lights back, so lane 1 and lane 2 both show go
after three steps.
"""
from __future__ import annotations


def _phases(n: int) -> list[str]:
    return [p for i in range(1, n + 1) for p in (f"S{i}", f"G{i}")]


def _lane_rule(i: int, n: int, faulty: bool) -> str:
    stop, go = f"S{i}", f"G{i}"
    after = f"S{i % n + 1}"

    def toggle(indent: str) -> str:
        return (f"{indent}StopLight({i}) := not StopLight({i})\n"
                f"{indent}GoLight({i}) := not GoLight({i})\n")

    if faulty and i == 1:
        # lane 1 toggles only on the way in, and skips to lane 2's go phase
        body = (f"    if phase = {stop} then\n"
                + toggle("      ")
                + f"      phase := {go}\n"
                "    else\n"
                "      phase := G2\n"
                "    endif\n")
    else:
        body = (toggle("    ")
                + f"    if phase = {stop} then\n"
                f"      phase := {go}\n"
                "    else\n"
                f"      phase := {after}\n"
                "    endif\n")
    return (f"rule lane{i}:\n"
            f"  if phase in {{ {stop}, {go} }} and Passed(phase) then\n"
            + body + "  endif\n")


def ring_source(n: int, faulty: bool = False) -> str:
    """Source text of ring-``n`` (or its faulty variant), for n >= 2."""
    if n < 2:
        raise ValueError("a ring needs at least two lanes")
    name = f"ring{n}" + ("_faulty" if faulty else "")
    unsafe = " or ".join(f"(GoLight({i}) and GoLight({j}))"
                         for i in range(1, n + 1)
                         for j in range(i + 1, n + 1))
    lines = [
        f"asm {name}",
        "",
        f"enum Phase = {{ {', '.join(_phases(n))} }}",
        f"int Lane = 1..{n}",
        "controlled phase : Phase init S1",
        "controlled StopLight : Lane -> Bool init { _: true }",
        "controlled GoLight : Lane -> Bool init { _: false }",
        "monitored Passed : Phase -> Bool",
        "ctlstate phase",
        f"unsafe {unsafe}",
    ]
    lines += [f"constraint GoLight({i}) = not StopLight({i})"
              for i in range(1, n + 1)]
    lines.append("")
    rules = [_lane_rule(i, n, faulty) for i in range(1, n + 1)]
    return "\n".join(lines) + "\n" + "\n".join(rules)

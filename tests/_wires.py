"""Input words as the wire bits ``eval_circuit`` reads, and back, both in
the one layout ``circuit.input_wires`` states."""

from wysx.circuit import input_wires


def wire_bits(circ, words):
    """Each party's input word spread over its input wires."""
    return {p: {w: (words[p] >> j) & 1 for j, w in enumerate(wires)}
            for p, wires in input_wires(circ).items()}


def input_words(circ, bits):
    """Each party's input word gathered from its bits on its input wires."""
    return {p: sum(bits[p][w] << j for j, w in enumerate(wires))
            for p, wires in input_wires(circ).items()}

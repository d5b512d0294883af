import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_src_lines.py"
spec = importlib.util.spec_from_file_location("count_src_lines", TOOL)
count_src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_src_lines)


def test_the_line_counter_leaves_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    module = tmp_path / "m.py"
    module.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = '''a string\n"
        "that is code'''  # its two lines count\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        "        return (1 +\n"
        "                2)\n")
    assert count_src_lines.count(module) == (16, 6)
    assert count_src_lines.main([str(tmp_path)]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total == ["total", "16", "6"]

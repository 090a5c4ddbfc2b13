//===- frontend/Lexer.cpp - Pseudo-language lexer ---------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <cstdlib>

using namespace dra;

Lexer::Lexer(std::string Source) : Source(std::move(Source)) {}

bool Lexer::tokenize(std::vector<Token> &Out, std::string &Error) {
  unsigned Line = 1, Col = 1;
  size_t I = 0, E = Source.size();

  auto Make = [&](TokKind K, std::string Text) {
    Token T;
    T.Kind = K;
    T.Text = std::move(Text);
    T.Line = Line;
    T.Col = Col;
    return T;
  };
  auto Fail = [&](const std::string &Msg) {
    Error = std::to_string(Line) + ":" + std::to_string(Col) + ": " + Msg;
    return false;
  };

  while (I != E) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      Col = 1;
      ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++Col;
      ++I;
      continue;
    }
    if (C == '#') { // Comment to end of line.
      while (I != E && Source[I] != '\n')
        ++I;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      unsigned StartCol = Col;
      while (I != E && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                        Source[I] == '_')) {
        ++I;
        ++Col;
      }
      Token T = Make(TokKind::Ident, Source.substr(Start, I - Start));
      T.Col = StartCol;
      Out.push_back(std::move(T));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      unsigned StartCol = Col;
      bool SeenDot = false;
      while (I != E) {
        char D = Source[I];
        if (D == '.' && I + 1 != E && Source[I + 1] == '.')
          break; // ".." range operator, not a decimal point
        if (D == '.') {
          if (SeenDot)
            return Fail("malformed number: second decimal point");
          SeenDot = true;
        } else if (!std::isdigit(static_cast<unsigned char>(D))) {
          break;
        }
        ++I;
        ++Col;
      }
      Token T = Make(TokKind::Number, Source.substr(Start, I - Start));
      T.Col = StartCol;
      // strtod, not stod: a literal beyond double's range reads as inf (or
      // 0) instead of throwing; the parser range-checks what it uses.
      T.NumValue = std::strtod(T.Text.c_str(), nullptr);
      Out.push_back(std::move(T));
      continue;
    }
    switch (C) {
    case '[':
      Out.push_back(Make(TokKind::LBracket, "["));
      break;
    case ']':
      Out.push_back(Make(TokKind::RBracket, "]"));
      break;
    case '{':
      Out.push_back(Make(TokKind::LBrace, "{"));
      break;
    case '}':
      Out.push_back(Make(TokKind::RBrace, "}"));
      break;
    case '=':
      Out.push_back(Make(TokKind::Equals, "="));
      break;
    case '+':
      Out.push_back(Make(TokKind::Plus, "+"));
      break;
    case '-':
      Out.push_back(Make(TokKind::Minus, "-"));
      break;
    case '*':
      Out.push_back(Make(TokKind::Star, "*"));
      break;
    case '.':
      if (I + 1 != E && Source[I + 1] == '.') {
        Out.push_back(Make(TokKind::DotDot, ".."));
        ++I;
        ++Col;
        break;
      }
      return Fail("unexpected '.'");
    default:
      return Fail(std::string("unexpected character '") + C + "'");
    }
    ++I;
    ++Col;
  }
  Out.push_back(Make(TokKind::Eof, ""));
  return true;
}
